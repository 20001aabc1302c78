#include "bfv/bfv.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

namespace cofhee::bfv {

using poly::BigInt;
using poly::Coeffs;
using poly::RnsPoly;

poly::RnsPoly Bfv::sample_small_rns(bool ternary) {
  const auto s = ternary ? poly::sample_ternary(rng_, ctx_.n())
                         : poly::sample_cbd(rng_, ctx_.n(), ctx_.params().cbd_eta);
  return poly::to_rns(s, ctx_.q_basis());
}

SecretKey Bfv::keygen_secret() { return SecretKey{sample_small_rns(true)}; }

PublicKey Bfv::keygen_public(const SecretKey& sk) {
  PublicKey pk;
  RnsPoly a;
  a.towers.reserve(ctx_.q_basis().size());
  for (std::size_t i = 0; i < ctx_.q_basis().size(); ++i)
    a.towers.push_back(poly::sample_uniform(rng_, ctx_.n(), ctx_.q_basis().modulus(i)));
  const RnsPoly e = sample_small_rns(false);
  pk.p0 = ctx_.neg(ctx_.add(ctx_.mul(a, sk.s), e));
  pk.p1 = std::move(a);
  return pk;
}

RelinKeys Bfv::keygen_relin(const SecretKey& sk, unsigned digit_bits) {
  if (digit_bits == 0 || digit_bits > 32)
    throw std::invalid_argument("Bfv: digit_bits in [1,32]");
  RelinKeys rk;
  rk.digit_bits = digit_bits;
  const RnsPoly s2 = ctx_.mul(sk.s, sk.s);
  const unsigned digits =
      (ctx_.big_q().bit_len() + digit_bits - 1) / digit_bits;
  for (unsigned d = 0; d < digits; ++d) {
    // a_i is uniform, so it needs no wire bytes beyond a seed: draw one
    // 64-bit digit seed and expand each tower from it with the shared
    // definition the driver's compressed key upload re-runs chip-side.
    const std::uint64_t dseed = rng_.next_u64();
    rk.a_seeds.push_back(dseed);
    RnsPoly a;
    a.towers.reserve(ctx_.q_basis().size());
    for (std::size_t i = 0; i < ctx_.q_basis().size(); ++i)
      a.towers.push_back(poly::expand_uniform(dseed, i, ctx_.n(),
                                              ctx_.q_basis().modulus(i)));
    const RnsPoly e = sample_small_rns(false);
    // b = -(a s + e) + 2^(w d) s^2  (mod Q), per tower.
    RnsPoly b = ctx_.neg(ctx_.add(ctx_.mul(a, sk.s), e));
    BigInt w_pow;
    w_pow.set_bit(digit_bits * d);
    const BigInt w_mod = w_pow % ctx_.big_q();
    for (std::size_t i = 0; i < ctx_.q_basis().size(); ++i) {
      const u64 wq = w_mod.mod_u64(ctx_.q_basis().modulus(i));
      const auto scaled = poly::scalar_mul(ctx_.q_basis().tower(i), s2.towers[i], wq);
      b.towers[i] = poly::pointwise_add(ctx_.q_basis().tower(i), b.towers[i], scaled);
    }
    rk.keys.emplace_back(std::move(b), std::move(a));
  }
  return rk;
}

void Bfv::check_plaintext(const Plaintext& m) const {
  if (m.coeffs.size() != ctx_.n()) throw std::invalid_argument("Bfv: bad plaintext size");
  for (u64 c : m.coeffs)
    if (c >= ctx_.t()) throw std::invalid_argument("Bfv: coeff >= t");
}

Ciphertext Bfv::encrypt(const PublicKey& pk, const Plaintext& m) {
  check_plaintext(m);
  const RnsPoly u = sample_small_rns(true);
  const RnsPoly e1 = sample_small_rns(false);
  const RnsPoly e2 = sample_small_rns(false);
  Ciphertext ct;
  // c0 = p0 u + e1 + Delta m  (Eq. 2), c1 = p1 u + e2  (Eq. 3).
  RnsPoly c0 = ctx_.add(ctx_.mul(pk.p0, u), e1);
  ctx_.exec().for_each(ctx_.q_basis().size(), [&](std::size_t i) {
    const auto& ring = ctx_.q_basis().tower(i);
    const nt::ShoupMul dm(ctx_.delta_mod(i), ring.modulus());
    for (std::size_t j = 0; j < ctx_.n(); ++j)
      c0.towers[i][j] = ring.add(c0.towers[i][j], dm.mul(m.coeffs[j]));
  });
  ct.c.push_back(std::move(c0));
  ct.c.push_back(ctx_.add(ctx_.mul(pk.p1, u), e2));
  return ct;
}

Plaintext Bfv::decrypt(const SecretKey& sk, const Ciphertext& ct) const {
  if (ct.size() < 2 || ct.size() > 3) throw std::invalid_argument("Bfv: bad ct size");
  // v = c0 + c1 s (+ c2 s^2) over Q.
  RnsPoly v = ctx_.add(ct.c[0], ctx_.mul(ct.c[1], sk.s));
  if (ct.size() == 3) v = ctx_.add(v, ctx_.mul(ctx_.mul(ct.c[2], sk.s), sk.s));

  Plaintext m;
  m.coeffs.assign(ctx_.n(), 0);
  const u64 t = ctx_.t();
  const auto& qb = ctx_.q_basis();
  const auto& round_t_q = ctx_.host_rns().round_t_q;
  // Coefficient-wise t/Q rounding of the centered x, in Z_t: the sign fold
  // cancels, since round(t (x - Q) / Q) = round(t x / Q) - t, so the
  // coefficient is f = round(t x / Q) in [0, t], read mod t.  Each task owns
  // a contiguous coefficient range and its own scratch.
  ctx_.exec().for_ranges(ctx_.n(), [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> res(qb.size()), digits(qb.size());
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < res.size(); ++i) res[i] = v.towers[i][j];
      qb.mixed_radix(res, digits);
      const u64 f = round_t_q(digits);
      m.coeffs[j] = f == t ? 0 : f;
    }
  });
  return m;
}

Ciphertext Bfv::add(const Ciphertext& a, const Ciphertext& b) const {
  if (a.size() != b.size()) throw std::invalid_argument("Bfv: size mismatch");
  Ciphertext r;
  for (std::size_t i = 0; i < a.size(); ++i) r.c.push_back(ctx_.add(a.c[i], b.c[i]));
  return r;
}

Ciphertext Bfv::negate(const Ciphertext& a) const {
  Ciphertext r;
  for (const auto& comp : a.c) r.c.push_back(ctx_.neg(comp));
  return r;
}

Ciphertext Bfv::add_plain(const Ciphertext& a, const Plaintext& m) const {
  check_plaintext(m);
  Ciphertext r = a;
  for (std::size_t i = 0; i < ctx_.q_basis().size(); ++i) {
    const auto& ring = ctx_.q_basis().tower(i);
    const nt::ShoupMul dm(ctx_.delta_mod(i), ring.modulus());
    for (std::size_t j = 0; j < ctx_.n(); ++j)
      r.c[0].towers[i][j] = ring.add(r.c[0].towers[i][j], dm.mul(m.coeffs[j]));
  }
  return r;
}

Ciphertext Bfv::mul_plain(const Ciphertext& a, const Plaintext& m) const {
  // Plaintext coefficients are small (< t); embed directly in every tower.
  check_plaintext(m);
  RnsPoly mp;
  mp.towers.assign(ctx_.q_basis().size(), poly::Coeffs<u64>(ctx_.n()));
  ctx_.exec().for_each(ctx_.q_basis().size(), [&](std::size_t i) {
    for (std::size_t j = 0; j < ctx_.n(); ++j)
      mp.towers[i][j] = ctx_.host_rns().one_mod_q[i].mul(m.coeffs[j]);
  });
  Ciphertext r;
  for (const auto& comp : a.c) r.c.push_back(ctx_.mul(comp, mp));
  return r;
}

poly::RnsPoly Bfv::extend_centered(const RnsPoly& p) const {
  const auto& qb = ctx_.q_basis();
  const auto& eb = ctx_.ext_basis();
  const auto& rns = ctx_.host_rns();
  const std::size_t kq = qb.size();
  RnsPoly out;
  out.towers.resize(eb.size());
  // The Q towers pass through: the centered value x - [x > Q/2] Q is x
  // mod every q_i.
  for (std::size_t i = 0; i < kq; ++i) out.towers[i] = p.towers[i];
  for (std::size_t i = kq; i < eb.size(); ++i) out.towers[i].resize(ctx_.n());
  ctx_.exec().for_ranges(ctx_.n(), [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> res(kq), digits(kq);
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < kq; ++i) res[i] = p.towers[i][j];
      qb.mixed_radix(res, digits);
      const bool neg = qb.exceeds_half(digits);
      for (std::size_t a = 0; a < rns.q_to_aux.size(); ++a) {
        const u64 x = rns.q_to_aux[a](digits);
        out.towers[kq + a][j] = neg ? eb.tower(kq + a).sub(x, rns.q_mod_aux[a]) : x;
      }
    }
  });
  return out;
}

poly::RnsPoly Bfv::scale_round_to_q(const RnsPoly& y_ext) const {
  const auto& qb = ctx_.q_basis();
  const auto& eb = ctx_.ext_basis();
  const auto& rns = ctx_.host_rns();
  // The ext basis lists the Q towers first, so y = y_Q + Q y_B with y_Q the
  // value of the first |Q| digits.  With f = round(t y_Q / Q) in [0, t],
  // round(t y / Q) = t y_B + f, and for a negative y (y > P/2, P = Q B) the
  // centered rounding is -round(t (P - y) / Q) = t (y_B - B) + f: Q is odd,
  // so t y_Q / Q is never a half-integer and rounding has no ties.
  RnsPoly out;
  out.towers.assign(qb.size(), Coeffs<u64>(ctx_.n()));
  ctx_.exec().for_ranges(ctx_.n(), [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> res(eb.size()), digits(eb.size());
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < eb.size(); ++i) res[i] = y_ext.towers[i][j];
      eb.mixed_radix(res, digits);
      const bool neg = eb.exceeds_half(digits);
      const u64 f = rns.round_t_q(digits);
      for (std::size_t i = 0; i < qb.size(); ++i) {
        const auto& ring = qb.tower(i);
        u64 yb = rns.b_to_q[i](digits);
        if (neg) yb = ring.sub(yb, rns.b_mod_q[i]);
        const u64 fq = f < ring.modulus() ? f : rns.one_mod_q[i].mul(f);
        out.towers[i][j] = ring.add(rns.t_mod_q[i].mul(yb), fq);
      }
    }
  });
  return out;
}

Ciphertext Bfv::multiply(const Ciphertext& a, const Ciphertext& b) const {
  if (a.size() != 2 || b.size() != 2)
    throw std::invalid_argument("Bfv: multiply expects 2-element ciphertexts");
  // Centered base extension Q -> Q u B of all four polynomials.
  const RnsPoly a0 = extend_centered(a.c[0]);
  const RnsPoly a1 = extend_centered(a.c[1]);
  const RnsPoly b0 = extend_centered(b.c[0]);
  const RnsPoly b1 = extend_centered(b.c[1]);

  // Tensor per extended tower (Eq. 4 numerators): 4 forward NTTs, 4
  // Hadamard products, 1 add, 3 inverse NTTs -- the exact command mix
  // CoFHEE runs on chip (Algorithm 3), executed host-side as one fused
  // MergedNtt64::tensor call per tower (lazy-reduction butterflies, SIMD
  // pointwise kernels, no intermediate NTT-form wave materialized).  One
  // task per tower: each owns its contiguous coefficient vectors.
  const std::size_t k = ctx_.ext_basis().size();
  RnsPoly y0, y1, y2;
  y0.towers.resize(k);
  y1.towers.resize(k);
  y2.towers.resize(k);
  ctx_.exec().for_each(k, [&](std::size_t i) {
    ctx_.ext_ntt(i).tensor(a0.towers[i], a1.towers[i], b0.towers[i],
                           b1.towers[i], y0.towers[i], y1.towers[i],
                           y2.towers[i]);
  });

  Ciphertext r;
  r.c.push_back(scale_round_to_q(y0));
  r.c.push_back(scale_round_to_q(y1));
  r.c.push_back(scale_round_to_q(y2));
  return r;
}

void Bfv::validate_relin_keys(const RelinKeys& rk) const {
  const auto& qb = ctx_.q_basis();
  if (rk.digit_bits == 0 || rk.digit_bits > 32)
    throw std::invalid_argument("Bfv: relin digit_bits in [1,32]");
  if (rk.keys.empty()) throw std::invalid_argument("Bfv: empty relin keys");
  if (rk.keys.size() * rk.digit_bits < ctx_.big_q().bit_len())
    throw std::invalid_argument(
        "Bfv: relin keys cover fewer digits than log2(Q) -- generated at a "
        "different level");
  for (const auto& [b, a] : rk.keys) {
    if (b.towers.size() != qb.size() || a.towers.size() != qb.size())
      throw std::invalid_argument(
          "Bfv: relin key tower count does not match this scheme's Q basis");
    for (std::size_t i = 0; i < qb.size(); ++i)
      if (b.towers[i].size() != ctx_.n() || a.towers[i].size() != ctx_.n())
        throw std::invalid_argument(
            "Bfv: relin key polynomial degree does not match this ring");
  }
}

std::vector<RnsPoly> Bfv::relin_digits(const RnsPoly& c2, const RelinKeys& rk) const {
  const auto& qb = ctx_.q_basis();
  const auto& one_mod_q = ctx_.host_rns().one_mod_q;
  const unsigned w = rk.digit_bits;
  const u64 mask = (u64{1} << w) - 1;  // w <= 32 (validate_relin_keys)
  const std::size_t limbs = qb.limbs();

  // Digit-decompose c2 over the integers: c2 = sum_d D_d 2^(w d), with c2's
  // binary value built by Horner over its mixed-radix digits.  Each task
  // converts a contiguous coefficient range; digit writes are disjoint.
  const std::size_t nd = rk.keys.size();
  std::vector<RnsPoly> digits(nd);
  for (auto& d : digits) d.towers.assign(qb.size(), Coeffs<u64>(ctx_.n(), 0));
  ctx_.exec().for_ranges(ctx_.n(), [&](std::size_t lo, std::size_t hi) {
    std::vector<u64> res(qb.size()), radix(qb.size());
    std::array<u64, BigInt::limbs()> x{};
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < qb.size(); ++i) res[i] = c2.towers[i][j];
      qb.mixed_radix(res, radix);
      qb.horner(radix, std::span(x.data(), limbs));
      for (std::size_t d = 0; d < nd; ++d) {
        const std::size_t bit = w * d, l = bit / 64, sh = bit % 64;
        u64 digit = 0;
        if (l < limbs) {
          digit = x[l] >> sh;
          if (sh + w > 64 && l + 1 < limbs) digit |= x[l + 1] << (64 - sh);
        }
        digit &= mask;
        for (std::size_t i = 0; i < qb.size(); ++i)
          digits[d].towers[i][j] =
              digit < qb.modulus(i) ? digit : one_mod_q[i].mul(digit);
      }
    }
  });
  return digits;
}

Ciphertext Bfv::relinearize(const Ciphertext& ct, const RelinKeys& rk) const {
  if (ct.size() != 3) throw std::invalid_argument("Bfv: relinearize expects 3 elements");
  validate_relin_keys(rk);
  const auto& qb = ctx_.q_basis();
  const std::size_t nd = rk.keys.size();
  const std::vector<RnsPoly> digits = relin_digits(ct.c[2], rk);

  // Key-switch products: one task per (digit, component, tower) -- the
  // relinearization digit loops are nd * 2 * towers independent negacyclic
  // multiplications.
  std::vector<RnsPoly> prod0(nd), prod1(nd);
  for (auto& p : prod0) p.towers.resize(qb.size());
  for (auto& p : prod1) p.towers.resize(qb.size());
  ctx_.exec().for_each(nd * 2 * qb.size(), [&](std::size_t idx) {
    const std::size_t d = idx / (2 * qb.size());
    const std::size_t rem = idx % (2 * qb.size());
    const std::size_t comp = rem / qb.size();
    const std::size_t i = rem % qb.size();
    const auto& key = comp == 0 ? rk.keys[d].first : rk.keys[d].second;
    auto& out = comp == 0 ? prod0[d] : prod1[d];
    out.towers[i] = ctx_.mul_tower(i, digits[d].towers[i], key.towers[i]);
  });

  Ciphertext r;
  r.c.push_back(ct.c[0]);
  r.c.push_back(ct.c[1]);
  // Accumulate per (component, tower), keeping the ascending-d order of the
  // serial reference so sums are bit-identical.
  ctx_.exec().for_each(2 * qb.size(), [&](std::size_t idx) {
    const std::size_t comp = idx / qb.size();
    const std::size_t i = idx % qb.size();
    const auto& ring = qb.tower(i);
    auto& acc = r.c[comp].towers[i];
    const auto& prods = comp == 0 ? prod0 : prod1;
    for (std::size_t d = 0; d < nd; ++d)
      acc = poly::pointwise_add(ring, acc, prods[d].towers[i]);
  });
  return r;
}

double Bfv::noise_budget_bits(const SecretKey& sk, const Ciphertext& ct) const {
  // v = Delta m + e (mod Q); recover m, then measure |e|_inf.
  const Plaintext m = decrypt(sk, ct);
  RnsPoly v = ctx_.add(ct.c[0], ctx_.mul(ct.c[1], sk.s));
  if (ct.size() == 3) v = ctx_.add(v, ctx_.mul(ctx_.mul(ct.c[2], sk.s), sk.s));
  const auto& qb = ctx_.q_basis();
  double max_noise_bits = 0;
  std::vector<u64> res(qb.size());
  for (std::size_t j = 0; j < ctx_.n(); ++j) {
    for (std::size_t i = 0; i < qb.size(); ++i) res[i] = v.towers[i][j];
    BigInt x = qb.reconstruct(res);
    // e = centered(x - Delta*m_j mod Q).
    u64 carry = 0;
    BigInt dm = ctx_.delta().mul_small(m.coeffs[j], &carry);
    if (x >= dm) {
      x -= dm;
    } else {
      x += qb.product() - dm;
    }
    const BigInt half = qb.product() >> 1;
    const BigInt mag = x > half ? qb.product() - x : x;
    max_noise_bits = std::max(max_noise_bits, static_cast<double>(mag.bit_len()));
  }
  const double capacity =
      static_cast<double>(qb.product().bit_len()) - 1.0 -
      static_cast<double>(nt::bit_length(ctx_.t()));
  return capacity - max_noise_bits;
}

}  // namespace cofhee::bfv
