// Residue Number System (paper Section II-D).
//
// A wide ciphertext modulus q = prod(q_i) is split into coprime 64-bit
// towers so the software baseline can use native arithmetic (SEAL-style);
// CoFHEE's 128-bit datapath instead needs only one tower per 128 coefficient
// bits (Section III-C's rationale for the wide multiplier).  Every exact
// conversion goes through one mixed-radix (Garner) CRT per basis: the
// residues of x become digits d_i < m_i with x = sum_i d_i * M_i,
// M_i = prod_{l<i} m_l, computed in word arithmetic with Shoup constants.
// The digits are exact integers, so base conversion, centering and the BFV
// t/q rounding stay exact (rather than SEAL's floating-point approximation)
// without lifting a coefficient into a big integer.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "nt/barrett.hpp"
#include "nt/wide_int.hpp"
#include "poly/polynomial.hpp"

// poly stays a leaf layer: the pooled overloads below only name the
// executor, so a forward declaration suffices and backend's thread-pool
// headers are not dragged into every poly consumer.
namespace cofhee::backend {
class Executor;
}

namespace cofhee::poly {

/// Big-integer type wide enough for every CRT lift in this codebase:
/// tensor coefficients are bounded by n * q^2 * t < 2^(2*218+14+20) < 2^512
/// for the paper's largest parameter set.
using BigInt = nt::WideInt<8>;

class RnsBasis {
 public:
  RnsBasis() = default;
  explicit RnsBasis(const std::vector<u64>& moduli);

  [[nodiscard]] std::size_t size() const noexcept { return mods_.size(); }
  [[nodiscard]] const nt::Barrett64& tower(std::size_t i) const { return mods_.at(i); }
  [[nodiscard]] u64 modulus(std::size_t i) const { return mods_.at(i).modulus(); }
  [[nodiscard]] const std::vector<nt::Barrett64>& towers() const noexcept { return mods_; }
  /// Product of all tower moduli.
  [[nodiscard]] const BigInt& product() const noexcept { return big_q_; }
  /// Total bit size of the composite modulus (the paper's "log q").
  [[nodiscard]] unsigned log_q() const noexcept { return big_q_.bit_len(); }
  /// 64-bit words that hold any value below product().
  [[nodiscard]] std::size_t limbs() const noexcept { return (log_q() + 63) / 64; }

  /// Residues of x (0 <= x < product()) in every tower.
  [[nodiscard]] std::vector<u64> decompose(const BigInt& x) const;

  /// CRT reconstruction into [0, product()).
  [[nodiscard]] BigInt reconstruct(std::span<const u64> residues) const;

  /// Reconstruction mapped to the symmetric interval (-Q/2, Q/2], returned
  /// as (magnitude, is_negative).
  [[nodiscard]] std::pair<BigInt, bool> reconstruct_centered(
      std::span<const u64> residues) const;

  /// Mixed-radix digits of the value x in [0, product()) with these
  /// residues: x = sum_i digits[i] * M_i with M_i = prod_{l<i} m_l and
  /// 0 <= digits[i] < m_i.  Digit i is
  /// (r_i * M_i^-1 - sum_{j<i} d_j * M_j * M_i^-1) mod m_i, one Shoup product
  /// per term, so a residue may be any u64 (it is read modulo its tower).
  void mixed_radix(std::span<const u64> residues, std::span<u64> digits) const noexcept {
    const nt::ShoupMul* row = garner_.data();
    for (std::size_t i = 0; i < mods_.size(); ++i) {
      const u64 q = mods_[i].modulus();
      u64 acc = row[i].mul(residues[i]);
      for (std::size_t j = 0; j < i; ++j) {
        const u64 s = acc + row[j].mul(digits[j]);  // both < q < 2^62
        acc = s >= q ? s - q : s;
      }
      digits[i] = acc;
      row += i + 1;
    }
  }

  /// Whether the value with these mixed-radix digits exceeds
  /// floor(product() / 2): a top-down digit comparison.
  [[nodiscard]] bool exceeds_half(std::span<const u64> digits) const noexcept {
    for (std::size_t i = mods_.size(); i-- > 0;)
      if (digits[i] != half_digits_[i]) return digits[i] > half_digits_[i];
    return false;
  }

  /// Binary value of mixed-radix digits by Horner's rule,
  /// x = d_0 + m_0 (d_1 + m_1 (d_2 + ...)), written little-endian into
  /// `out`, which needs at least limbs() words (the rest are zeroed).
  void horner(std::span<const u64> digits, std::span<u64> out) const noexcept {
    std::fill(out.begin(), out.end(), u64{0});
    std::size_t used = 1;
    out[0] = digits[mods_.size() - 1];
    for (std::size_t i = mods_.size() - 1; i-- > 0;) {
      const u64 m = mods_[i].modulus();
      u64 carry = digits[i];
      for (std::size_t l = 0; l < used; ++l) {
        const u128 cur = static_cast<u128>(out[l]) * m + carry;
        out[l] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      if (carry != 0) out[used++] = carry;
    }
  }

 private:
  /// reconstruct() into `digits` scratch: mixed-radix digits, then Horner.
  [[nodiscard]] BigInt lift(std::span<const u64> residues, std::span<u64> digits) const;

  std::vector<nt::Barrett64> mods_;
  BigInt big_q_{};
  // Row i (i + 1 entries, starting at i (i + 1) / 2): -M_j * M_i^-1 mod m_i
  // for j < i, then M_i^-1 mod m_i.
  std::vector<nt::ShoupMul> garner_;
  std::vector<u64> half_digits_;  // mixed-radix digits of floor(product() / 2)
};

/// Reads a value given by mixed-radix digits modulo one word modulus p.
/// Built over the digit range [begin, end) of a basis, it returns
/// (sum_{begin <= j < end} d_j * prod_{begin <= l < j} m_l) mod p: with
/// begin = 0 and end = size() that is x mod p, and with begin > 0 it is
/// floor(x / M_begin) mod (M_end / M_begin), read modulo p.
class RadixProjection {
 public:
  RadixProjection(const RnsBasis& basis, u64 p, std::size_t begin, std::size_t end);

  [[nodiscard]] u64 operator()(std::span<const u64> digits) const noexcept {
    u64 acc = 0;
    for (std::size_t j = 0; j < weights_.size(); ++j) {
      const u64 s = acc + weights_[j].mul(digits[begin_ + j]);  // both < p < 2^62
      acc = s >= p_ ? s - p_ : s;
    }
    return acc;
  }

 private:
  u64 p_ = 0;
  std::size_t begin_ = 0;
  std::vector<nt::ShoupMul> weights_;
};

/// round(t * x / P) in [0, t] for x in [0, P), P = basis.product() odd,
/// given the first basis.size() mixed-radix digits of x (over this basis or
/// any basis that starts with its towers).  P odd makes t * x / P never a
/// half-integer, so the rounding has no ties.  A double estimate
/// f0 = floor(sum_i d_i * (t M_i / P) + 1/2) is off by at most
/// ceil(eps), eps = (3k + 4) * t * 2^-53 for k towers; the exact fix-up
/// keeps C = t x + floor(P/2) - f P in [0, P) on limbs() + 1 words and moves
/// f by one per step, so it takes at most 1 + floor(eps) steps -- one for
/// every t below 2^47 on a basis of up to 16 towers.
class ScaledRound {
 public:
  ScaledRound() = default;
  ScaledRound(RnsBasis basis, u64 t);

  [[nodiscard]] u64 operator()(std::span<const u64> digits) const noexcept;

 private:
  static constexpr std::size_t kMaxLimbs = BigInt::limbs() + 1;
  RnsBasis basis_;
  u64 t_ = 0;
  std::vector<double> scale_;  // t * M_i / P
  std::array<u64, kMaxLimbs> p_{}, half_{};
  std::size_t limbs_ = 0;
  unsigned max_steps_ = 0;
};

/// A polynomial in RNS representation: towers[i] holds the coefficients
/// modulo q_i.  All towers have the same length n.
struct RnsPoly {
  std::vector<Coeffs<u64>> towers;

  [[nodiscard]] std::size_t num_towers() const noexcept { return towers.size(); }
  [[nodiscard]] std::size_t n() const noexcept {
    return towers.empty() ? 0 : towers.front().size();
  }
};

/// Decompose big-integer coefficients into an RNS polynomial.
[[nodiscard]] RnsPoly rns_decompose(const RnsBasis& basis,
                                    const std::vector<BigInt>& coeffs);

/// CRT-lift an RNS polynomial back to big-integer coefficients in [0, Q).
[[nodiscard]] std::vector<BigInt> rns_reconstruct(const RnsBasis& basis,
                                                  const RnsPoly& p);

/// Exact base conversion: re-express p (residues w.r.t. `from`) in `to`.
/// Each target residue is read straight off the mixed-radix digits (no
/// approximation error), valid for values in [0, from.product()).
[[nodiscard]] RnsPoly rns_base_convert(const RnsBasis& from, const RnsBasis& to,
                                       const RnsPoly& p);

// Pooled variants.  Coefficients are independent, so each executor task
// lifts a contiguous coefficient range with its own scratch; results are
// bit-identical to the serial overloads above (every coefficient runs the
// exact same arithmetic).  The bases are read-only during the call and may
// be shared by any number of concurrent conversions.
[[nodiscard]] RnsPoly rns_decompose(const RnsBasis& basis,
                                    const std::vector<BigInt>& coeffs,
                                    const backend::Executor& exec);
[[nodiscard]] std::vector<BigInt> rns_reconstruct(const RnsBasis& basis,
                                                  const RnsPoly& p,
                                                  const backend::Executor& exec);
/// Each task converts its own coefficient range through the digits, with
/// no big-integer intermediate.
[[nodiscard]] RnsPoly rns_base_convert(const RnsBasis& from, const RnsBasis& to,
                                       const RnsPoly& p,
                                       const backend::Executor& exec);

}  // namespace cofhee::poly
