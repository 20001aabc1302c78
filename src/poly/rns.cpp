#include "poly/rns.hpp"

#include "backend/exec_policy.hpp"

namespace cofhee::poly {

RnsBasis::RnsBasis(const std::vector<u64>& moduli) {
  if (moduli.empty()) throw std::invalid_argument("RnsBasis: empty modulus set");
  mods_.reserve(moduli.size());
  for (u64 q : moduli) mods_.emplace_back(q);
  // Pairwise coprimality check (towers are primes in practice, but the CRT
  // below silently mis-reconstructs if this is violated).
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    for (std::size_t j = i + 1; j < moduli.size(); ++j) {
      u64 a = moduli[i], b = moduli[j];
      while (b != 0) {
        const u64 t = a % b;
        a = b;
        b = t;
      }
      if (a != 1) throw std::invalid_argument("RnsBasis: moduli not coprime");
    }
  }
  big_q_ = BigInt(u64{1});
  for (u64 q : moduli) {
    u64 carry = 0;
    big_q_ = big_q_.mul_small(q, &carry);
    if (carry != 0) throw std::overflow_error("RnsBasis: product exceeds 512 bits");
  }
  const std::size_t k = moduli.size();
  garner_.reserve(k * (k + 1) / 2);
  for (std::size_t i = 0; i < k; ++i) {
    const nt::Barrett64& r = mods_[i];
    std::vector<u64> prefix(i + 1, 1);  // M_j mod m_i
    for (std::size_t j = 1; j <= i; ++j)
      prefix[j] = r.mul(prefix[j - 1], moduli[j - 1] % moduli[i]);
    const u64 inv = r.inv(prefix[i]);
    for (std::size_t j = 0; j < i; ++j)
      garner_.emplace_back(r.neg(r.mul(prefix[j], inv)), moduli[i]);
    garner_.emplace_back(inv, moduli[i]);
  }
  half_digits_.resize(k);
  mixed_radix(decompose(big_q_ >> 1), half_digits_);
}

std::vector<u64> RnsBasis::decompose(const BigInt& x) const {
  std::vector<u64> r(mods_.size());
  for (std::size_t i = 0; i < mods_.size(); ++i) r[i] = x.mod_u64(mods_[i].modulus());
  return r;
}

BigInt RnsBasis::lift(std::span<const u64> residues, std::span<u64> digits) const {
  if (residues.size() != mods_.size())
    throw std::invalid_argument("RnsBasis::reconstruct: residue count mismatch");
  mixed_radix(residues, digits);
  BigInt x;
  horner(digits, x.limb);
  return x;
}

BigInt RnsBasis::reconstruct(std::span<const u64> residues) const {
  std::vector<u64> digits(mods_.size());
  return lift(residues, digits);
}

std::pair<BigInt, bool> RnsBasis::reconstruct_centered(
    std::span<const u64> residues) const {
  std::vector<u64> digits(mods_.size());
  const BigInt x = lift(residues, digits);
  if (exceeds_half(digits)) return {big_q_ - x, true};
  return {x, false};
}

RadixProjection::RadixProjection(const RnsBasis& basis, u64 p, std::size_t begin,
                                 std::size_t end)
    : p_(p), begin_(begin) {
  if (begin > end || end > basis.size())
    throw std::invalid_argument("RadixProjection: digit range outside the basis");
  const nt::Barrett64 red(p);
  u64 w = 1;  // prod_{begin <= l < j} m_l mod p
  for (std::size_t j = begin; j < end; ++j) {
    weights_.emplace_back(w, p);
    w = red.mul(w, basis.modulus(j) % p);
  }
}

ScaledRound::ScaledRound(RnsBasis basis, u64 t) : basis_(std::move(basis)), t_(t) {
  if (t == 0) throw std::invalid_argument("ScaledRound: t must be nonzero");
  if (!basis_.product().bit(0))
    throw std::invalid_argument("ScaledRound: the basis product must be odd");
  const std::size_t k = basis_.size();
  scale_.resize(k);
  double g = static_cast<double>(t);
  for (std::size_t i = k; i-- > 0;) {
    g /= static_cast<double>(basis_.modulus(i));
    scale_[i] = g;  // t / prod_{l >= i} m_l = t M_i / P
  }
  limbs_ = basis_.limbs() + 1;  // t x < 2^64 P
  const BigInt half = basis_.product() >> 1;
  for (std::size_t l = 0; l < basis_.limbs(); ++l) {
    p_[l] = basis_.product().limb[l];
    half_[l] = half.limb[l];
  }
  // Error of the estimate: (3 + 2 (k - i)) roundings on term i (t M_i / P
  // by repeated division, d_i to double, the product), k - 1 in the sum,
  // one in adding 1/2, and one more for second-order terms.
  const double eps =
      static_cast<double>(3 * k + 4) * static_cast<double>(t) * 0x1p-53;
  max_steps_ = 1 + static_cast<unsigned>(eps);
}

u64 ScaledRound::operator()(std::span<const u64> digits) const noexcept {
  const std::size_t k = basis_.size();
  double est = 0;
  for (std::size_t i = k; i-- > 0;) est += static_cast<double>(digits[i]) * scale_[i];
  const double r = est + 0.5;
  u64 f = r >= static_cast<double>(t_) ? t_ : static_cast<u64>(r);

  // c = t x + floor(P/2) - f P, two's complement on limbs_ words; f is
  // round(t x / P) exactly when 0 <= c < P.
  std::array<u64, kMaxLimbs> x, c;
  const std::size_t n = limbs_;
  basis_.horner(digits.first(k), std::span(x.data(), n));
  u64 xc = 0, fc = 0, hc = 0, borrow = 0;
  for (std::size_t l = 0; l < n; ++l) {
    const u128 xt = static_cast<u128>(x[l]) * t_ + xc;
    xc = static_cast<u64>(xt >> 64);
    const u128 fp = static_cast<u128>(f) * p_[l] + fc;
    fc = static_cast<u64>(fp >> 64);
    const u128 s = static_cast<u128>(static_cast<u64>(xt)) + half_[l] + hc;
    hc = static_cast<u64>(s >> 64);
    const u128 d = static_cast<u128>(static_cast<u64>(s)) - static_cast<u64>(fp) - borrow;
    borrow = static_cast<u64>(d >> 64) != 0 ? 1 : 0;
    c[l] = static_cast<u64>(d);
  }
  for (unsigned step = 0; step < max_steps_; ++step) {
    if (static_cast<std::int64_t>(c[n - 1]) < 0) {  // c < 0: f is too large
      u64 carry = 0;
      for (std::size_t l = 0; l < n; ++l) {
        const u128 s = static_cast<u128>(c[l]) + p_[l] + carry;
        c[l] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
      }
      --f;
      continue;
    }
    std::size_t l = n;
    while (l-- > 0 && c[l] == p_[l]) {
    }
    if (l < n && c[l] < p_[l]) break;  // 0 <= c < P
    u64 b = 0;                           // c >= P: f is too small
    for (std::size_t i = 0; i < n; ++i) {
      const u128 d = static_cast<u128>(c[i]) - p_[i] - b;
      c[i] = static_cast<u64>(d);
      b = static_cast<u64>(d >> 64) != 0 ? 1 : 0;
    }
    ++f;
  }
  return f;
}

RnsPoly rns_decompose(const RnsBasis& basis, const std::vector<BigInt>& coeffs) {
  return rns_decompose(basis, coeffs, backend::Executor{});
}

std::vector<BigInt> rns_reconstruct(const RnsBasis& basis, const RnsPoly& p) {
  return rns_reconstruct(basis, p, backend::Executor{});
}

RnsPoly rns_base_convert(const RnsBasis& from, const RnsBasis& to, const RnsPoly& p) {
  return rns_base_convert(from, to, p, backend::Executor{});
}

RnsPoly rns_decompose(const RnsBasis& basis, const std::vector<BigInt>& coeffs,
                      const backend::Executor& exec) {
  RnsPoly p;
  p.towers.assign(basis.size(), Coeffs<u64>(coeffs.size()));
  exec.for_ranges(coeffs.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < basis.size(); ++i)
        p.towers[i][j] = coeffs[j].mod_u64(basis.modulus(i));
    }
  });
  return p;
}

std::vector<BigInt> rns_reconstruct(const RnsBasis& basis, const RnsPoly& p,
                                    const backend::Executor& exec) {
  if (p.num_towers() != basis.size())
    throw std::invalid_argument("rns_reconstruct: tower count mismatch");
  const std::size_t n = p.n();
  std::vector<BigInt> coeffs(n);
  exec.for_ranges(n, [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> res(basis.size());
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < basis.size(); ++i) res[i] = p.towers[i][j];
      coeffs[j] = basis.reconstruct(res);
    }
  });
  return coeffs;
}

RnsPoly rns_base_convert(const RnsBasis& from, const RnsBasis& to, const RnsPoly& p,
                         const backend::Executor& exec) {
  if (p.num_towers() != from.size())
    throw std::invalid_argument("rns_base_convert: tower count mismatch");
  const std::size_t n = p.n();
  std::vector<RadixProjection> proj;
  proj.reserve(to.size());
  for (std::size_t i = 0; i < to.size(); ++i)
    proj.emplace_back(from, to.modulus(i), 0, from.size());
  RnsPoly out;
  out.towers.assign(to.size(), Coeffs<u64>(n));
  exec.for_ranges(n, [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> res(from.size()), digits(from.size());
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < from.size(); ++i) res[i] = p.towers[i][j];
      from.mixed_radix(res, digits);
      for (std::size_t i = 0; i < to.size(); ++i) out.towers[i][j] = proj[i](digits);
    }
  });
  return out;
}

}  // namespace cofhee::poly
