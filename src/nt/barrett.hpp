// Barrett modular reduction, the multiplier family CoFHEE fabricates.
//
// The paper (Section IV-A) selects Barrett over Montgomery because it needs
// no argument transformation and pipelines well; the chip stores the Barrett
// constant mu = floor(2^k_b / q) in the 160-bit BARRETTCTL2 register and the
// shift amount in BARRETTCTL1 (Table II).  Barrett64 is the software
// baseline's workhorse (64-bit towers with __int128 intermediates);
// Barrett128 mirrors the chip datapath (128-bit operands, 256-bit products)
// on two-limb unsigned __int128 arithmetic: four 64x64 products per 256-bit
// product, no multi-limb loops.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "nt/wide_int.hpp"

namespace cofhee::nt {

/// Barrett reducer for moduli q with 2 <= bits(q) <= 62.
/// Precomputes mu = floor(2^(2k) / q), k = bits(q).  reduce() accepts any
/// x < 2^(2k) (in particular any product of two residues).
class Barrett64 {
 public:
  Barrett64() = default;
  explicit Barrett64(u64 q) : q_(q) {
    if (q < 2) throw std::invalid_argument("Barrett64: modulus must be >= 2");
    if (bit_length(q) > 62)
      throw std::invalid_argument("Barrett64: modulus must fit in 62 bits");
    k_ = bit_length(q);
    const u128 two_2k = (k_ == 64) ? 0 : (static_cast<u128>(1) << (2 * k_));
    mu_ = static_cast<u64>(two_2k / q);  // fits: mu < 2^(k+1) <= 2^63
  }

  [[nodiscard]] u64 modulus() const noexcept { return q_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] u64 mu() const noexcept { return mu_; }

  /// x mod q for x < 2^(2k).
  [[nodiscard]] u64 reduce(u128 x) const noexcept {
    const u64 q1 = static_cast<u64>(x >> (k_ - 1));   // < 2^(k+1)
    const u128 q2 = static_cast<u128>(q1) * mu_;      // < 2^(2k+2)
    const u64 q3 = static_cast<u64>(q2 >> (k_ + 1));  // quotient estimate
    u128 r = x - static_cast<u128>(q3) * q_;          // r < 3q
    while (r >= q_) r -= q_;                          // at most 2 iterations
    return static_cast<u64>(r);
  }

  [[nodiscard]] u64 mul(u64 a, u64 b) const noexcept {
    return reduce(static_cast<u128>(a) * b);
  }

  [[nodiscard]] u64 add(u64 a, u64 b) const noexcept {
    const u64 s = a + b;
    return s >= q_ ? s - q_ : s;
  }

  [[nodiscard]] u64 sub(u64 a, u64 b) const noexcept {
    return a >= b ? a - b : a + q_ - b;
  }

  [[nodiscard]] u64 neg(u64 a) const noexcept { return a == 0 ? 0 : q_ - a; }

  [[nodiscard]] u64 pow(u64 base, u64 exp) const noexcept {
    u64 r = 1, b = base % q_;
    while (exp != 0) {
      if (exp & 1) r = mul(r, b);
      b = mul(b, b);
      exp >>= 1;
    }
    return r;
  }

  /// a^(-1) mod q via Fermat; requires q prime and a != 0.
  [[nodiscard]] u64 inv(u64 a) const {
    if (a % q_ == 0) throw std::domain_error("Barrett64::inv of zero");
    return pow(a, q_ - 2);
  }

 private:
  u64 q_ = 0;
  u64 mu_ = 0;
  unsigned k_ = 0;
};

/// Shoup constant w' = floor(w * 2^64 / q) of a fixed multiplier w < q.
[[nodiscard]] inline u64 shoup_constant(u64 w, u64 q) noexcept {
  return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

/// Shoup precomputation for repeated multiplication by a fixed operand w:
/// w' = shoup_constant(w, q).  mul_shoup(x) costs one 64x64 high product and
/// one low product -- the software NTT hot path.
class ShoupMul {
 public:
  ShoupMul() = default;
  ShoupMul(u64 w, u64 q) : w_(w), q_(q), wshoup_(shoup_constant(w, q)) {}

  [[nodiscard]] u64 operand() const noexcept { return w_; }

  [[nodiscard]] u64 mul(u64 x) const noexcept {
    const u64 hi = static_cast<u64>((static_cast<u128>(wshoup_) * x) >> 64);
    u64 r = w_ * x - hi * q_;  // wraparound arithmetic is intentional
    if (r >= q_) r -= q_;
    return r;
  }

 private:
  u64 w_ = 0, q_ = 0, wshoup_ = 0;
};

/// Full 256-bit product a * b of two 128-bit words: four 64x64 products.
inline void mul_wide(u128 a, u128 b, u128& hi, u128& lo) noexcept {
  const u64 a0 = static_cast<u64>(a), a1 = static_cast<u64>(a >> 64);
  const u64 b0 = static_cast<u64>(b), b1 = static_cast<u64>(b >> 64);
  const u128 p00 = static_cast<u128>(a0) * b0, p01 = static_cast<u128>(a0) * b1;
  const u128 p10 = static_cast<u128>(a1) * b0, p11 = static_cast<u128>(a1) * b1;
  const u128 mid = (p00 >> 64) + static_cast<u64>(p01) + static_cast<u64>(p10);
  lo = (mid << 64) | static_cast<u64>(p00);
  hi = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
}

/// Barrett reducer for moduli up to 128 bits -- the chip datapath width.
/// mu = floor(2^(2k) / q) has at most k+1 bits, k+2 when q = 2^(k-1), and
/// is held in a 192-bit register (the silicon stores 160 bits; Table II).
/// reduce() runs on two-limb native arithmetic: the quotient estimate
/// multiplies by the low 128 bits of mu, and the at most two bits that
/// q1 = x >> (k-1), mu and r = x - q3*q carry past 2^128 (only when
/// k >= 127) are folded in as explicit carries.
class Barrett128 {
 public:
  Barrett128() = default;
  explicit Barrett128(u128 q) : q_(q) {
    if (q < 2) throw std::invalid_argument("Barrett128: modulus must be >= 2");
    k_ = bit_length(q);
    // mu = floor(2^(2k) / q) computed with 512-bit long division.
    WideInt<8> two_2k;
    two_2k.set_bit(2 * k_);
    mu_ = (two_2k / WideInt<2>(q)).resize_trunc<3>();
    mu_lo_ = mu_.to_u128();
    mu_hi_ = mu_.limb[2];
  }

  [[nodiscard]] u128 modulus() const noexcept { return q_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] const U192& mu() const noexcept { return mu_; }

  /// x mod q for x = hi * 2^128 + lo < 2^(2k) (any product of two residues).
  [[nodiscard]] u128 reduce(u128 hi, u128 lo) const noexcept {
    // q1 = floor(x / 2^(k-1)) mod 2^128 (q1 < 2^(k+1): bit 128 is c1 below).
    const unsigned s = k_ - 1;  // 1 <= s <= 127
    const u128 q1 = (hi << (128 - s)) | (lo >> s);
    // q1 * mu_lo = tl * 2^128 + pl.
    u128 tl, pl;
    mul_wide(q1, mu_lo_, tl, pl);
    // q3 = floor(q1 * mu / 2^(k+1)) <= floor(x / q) < 2^k, off by at most 2,
    // and r = x - q3 * q < 3q.
    if (k_ < 127) {  // q1, mu and r all fit in 128 bits
      const u128 q3 = (tl << (127 - k_)) | (pl >> (k_ + 1));
      u128 r = lo - q3 * q_;
      for (int i = 0; i < 2 && r >= q_; ++i) r -= q_;
      return r;
    }
    // k >= 127: q1 has bit 128 c1 (k = 128), mu = mu_hi * 2^128 + mu_lo with
    // mu_hi <= 2, and r can pass 2^128.  Fold them into the high words
    // (th:tl) of q1 * mu, then q3 = (th:tl) >> (k - 127) fits in 128 bits.
    const u128 c1 = hi >> s;
    u64 th = 0;
    if (c1 != 0) {
      tl += mu_lo_;
      th += tl < mu_lo_;
      th += mu_hi_;
    }
    for (u64 i = 0; i < mu_hi_; ++i) {
      tl += q1;
      th += tl < q1;
    }
    const u128 q3 = (tl >> (k_ - 127)) | (static_cast<u128>(th) << 127);
    u128 ph, plo;
    mul_wide(q3, q_, ph, plo);
    u128 r = lo - plo;
    u128 rh = hi - ph - (lo < plo);  // r < 3q < 2^130: rh <= 2
    for (int i = 0; i < 2 && (rh != 0 || r >= q_); ++i) {
      rh -= r < q_;
      r -= q_;
    }
    return r;
  }

  [[nodiscard]] u128 mul(u128 a, u128 b) const noexcept {
    u128 hi, lo;
    mul_wide(a, b, hi, lo);
    return reduce(hi, lo);
  }

  [[nodiscard]] u128 add(u128 a, u128 b) const noexcept {
    // a, b < q <= 2^128 - 1: the sum may wrap; when it does, the true value
    // is s + 2^128 and the reduced result s + 2^128 - q equals s - q in
    // two's-complement wraparound arithmetic.
    const u128 s = a + b;
    if (s < a) return s - q_;
    return s >= q_ ? s - q_ : s;
  }

  [[nodiscard]] u128 sub(u128 a, u128 b) const noexcept {
    return a >= b ? a - b : a + (q_ - b);
  }

  [[nodiscard]] u128 neg(u128 a) const noexcept { return a == 0 ? 0 : q_ - a; }

  [[nodiscard]] u128 pow(u128 base, u128 exp) const noexcept {
    u128 r = 1, b = base % q_;
    while (exp != 0) {
      if (exp & 1) r = mul(r, b);
      b = mul(b, b);
      exp >>= 1;
    }
    return r;
  }

  [[nodiscard]] u128 inv(u128 a) const {
    if (a % q_ == 0) throw std::domain_error("Barrett128::inv of zero");
    return pow(a, q_ - 2);
  }

 private:
  u128 q_ = 0;
  U192 mu_{};
  u128 mu_lo_ = 0;  // mu mod 2^128
  u64 mu_hi_ = 0;   // floor(mu / 2^128) <= 2, nonzero only for k >= 127
  unsigned k_ = 0;
};

}  // namespace cofhee::nt
