// Barrett modular reduction, the multiplier family CoFHEE fabricates.
//
// The paper (Section IV-A) selects Barrett over Montgomery because it needs
// no argument transformation and pipelines well; the chip stores the Barrett
// constant mu = floor(2^k_b / q) in the 160-bit BARRETTCTL2 register and the
// shift amount in BARRETTCTL1 (Table II).  Barrett64 is the software
// baseline's workhorse (64-bit towers with __int128 intermediates);
// Barrett128 mirrors the chip datapath (128-bit operands, 256-bit products).
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

/// Barrett reducer for moduli up to 128 bits -- the chip datapath width.
/// mu = floor(2^(2k) / q) has at most k+1 <= 129 bits and is held in a
/// 192-bit register (the silicon stores 160 bits; Table II).
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
  }

  [[nodiscard]] u128 modulus() const noexcept { return q_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] const U192& mu() const noexcept { return mu_; }

  /// x mod q for x < 2^(2k) (any product of two residues).
  [[nodiscard]] u128 reduce(const U256& x) const noexcept {
    // q1 = floor(x / 2^(k-1)) < 2^(k+1)
    const U192 q1 = (x >> (k_ - 1)).resize_trunc<3>();
    // q3 = floor(q1 * mu / 2^(k+1)) <= floor(x/q), off by at most 2.
    const auto q2 = q1.mul_full(mu_);  // 6 limbs
    const U256 q3 = (q2 >> (k_ + 1)).template resize_trunc<4>();
    const U256 qq = q3.mul_full(WideInt<2>(q_)).resize_trunc<4>();
    U256 r = x - qq;  // r < 3q < 2^130
    const u128 q = q_;
    u128 rv = r.to_u128();
    // r may exceed 128 bits only transiently when q is full-width; handle
    // via one wide subtract first.
    if (r.limb[2] != 0 || r.limb[3] != 0) {
      r -= WideInt<4>(q);
      rv = r.to_u128();
    }
    while (rv >= q) rv -= q;
    return rv;
  }

  [[nodiscard]] u128 mul(u128 a, u128 b) const noexcept {
    return reduce(WideInt<2>(a).mul_full(WideInt<2>(b)));
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
  unsigned k_ = 0;
};

}  // namespace cofhee::nt
