// Merged negacyclic NTT, generic over the coefficient ring.
//
// This is the transform CoFHEE's NTT command executes: the 2n-th root psi
// is folded into the stage twiddles (one constant per butterfly block), so
// a single command performs the full negacyclic transform -- the ciphertext
// multiplication of Algorithm 3 then costs exactly 4 NTT + 4 Hadamard +
// 1 add + 3 iNTT commands, which is what the Table V / Fig. 6 latencies
// decompose into (see DESIGN.md Section 3).  The twiddle ROM holds the n
// bit-reverse-ordered psi powers; inverse twiddles are derived from the
// same table through the mirror identity psi^-e = -psi^(n-e) (paper
// Section VIII-B: "CoFHEE uses the same twiddle factors for both
// operations"), with the iNTT's DMA-assisted reorder pass doing the
// derivation on silicon.
//
// Both engines have a ROM constructor, (ring, ROM words, n^-1), and that is
// the engine the chip model runs: chip::Mdmc builds one from the TW bank
// and INV_POLYDEG it was programmed with.  The (ring, n, psi) constructors
// build the ROM with twiddle_rom() and delegate to it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "nt/barrett.hpp"
#include "nt/primes.hpp"
#include "poly/polynomial.hpp"

namespace cofhee::poly {

/// The twiddle ROM image psi^rev(i), i < n -- what the host preloads into
/// the chip's TW bank.  n must be 2^k (k >= 1), psi a primitive 2n-th root.
template <class Red, class T>
std::vector<T> twiddle_rom(const Red& red, std::size_t n, T psi) {
  if (!nt::is_power_of_two(n) || n < 2)
    throw std::invalid_argument("twiddle_rom: n must be 2^k, k >= 1");
  if (red.pow(psi, static_cast<T>(n)) != red.modulus() - 1)
    throw std::invalid_argument("twiddle_rom: psi is not a primitive 2n-th root");
  const unsigned logn = nt::log2_exact(n);
  std::vector<T> rom(n);
  T p = 1;  // psi^e, stored at rev(e) (bit reversal is an involution)
  for (std::size_t e = 0; e < n; ++e) {
    rom[nt::bit_reverse(e, logn)] = p;
    p = red.mul(p, psi);
  }
  return rom;
}

namespace detail {
/// The iNTT twiddles the mirror pass reads out of a ROM of any power-of-two
/// size: word i is 1 for e = rev(i) = 0, else -rom[rev(n - e)]
/// (= psi^-e for a ROM of psi powers).
template <class Red, class T>
std::vector<T> mirror_twiddles(const Red& red, const std::vector<T>& rom) {
  const std::size_t n = rom.size();
  if (!nt::is_power_of_two(n))
    throw std::invalid_argument("MergedNtt: ROM size must be a power of two");
  const unsigned logn = nt::log2_exact(n);
  std::vector<T> inv(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t e = nt::bit_reverse(i, logn);
    inv[i] = e == 0 ? T{1} : red.neg(rom[nt::bit_reverse(n - e, logn)]);
  }
  return inv;
}
}  // namespace detail

template <class Red, class T>
class MergedNtt {
 public:
  MergedNtt() = default;

  /// The engine for a twiddle ROM (forward twiddles as given, inverse ones
  /// by the mirror pass) and the iNTT's trailing scale n_inv.
  MergedNtt(const Red& red, std::vector<T> rom, T n_inv)
      : red_(red), n_(rom.size()), n_inv_(n_inv) {
    tw_inv_ = detail::mirror_twiddles(red, rom);
    tw_ = std::move(rom);
  }

  MergedNtt(const Red& red, std::size_t n, T psi)
      : MergedNtt(red, poly::twiddle_rom(red, n, psi), T{}) {
    n_inv_ = red.inv(static_cast<T>(n));
  }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] const Red& ring() const noexcept { return red_; }
  [[nodiscard]] T n_inv() const noexcept { return n_inv_; }
  /// The twiddle ROM image: psi^rev(i) -- what the host preloads into the
  /// chip's TW bank.
  [[nodiscard]] const std::vector<T>& twiddle_rom() const noexcept { return tw_; }
  [[nodiscard]] const std::vector<T>& inv_twiddles() const noexcept { return tw_inv_; }

  /// Forward negacyclic NTT (CT/DIT, natural in, bit-reversed out).
  void forward(Coeffs<T>& x) const {
    check(x);
    std::size_t t = n_;
    for (std::size_t m = 1; m < n_; m <<= 1) {
      t >>= 1;
      for (std::size_t i = 0; i < m; ++i) {
        const T s = tw_[m + i];
        const std::size_t j1 = 2 * i * t;
        for (std::size_t j = j1; j < j1 + t; ++j) {
          const T u = x[j];
          const T v = red_.mul(x[j + t], s);
          x[j] = red_.add(u, v);
          x[j + t] = red_.sub(u, v);
        }
      }
    }
  }

  /// Inverse negacyclic NTT (GS/DIF, bit-reversed in, natural out), with
  /// the trailing n^-1 scaling.
  void inverse(Coeffs<T>& x) const {
    check(x);
    std::size_t t = 1;
    for (std::size_t m = n_; m > 1; m >>= 1) {
      const std::size_t h = m >> 1;
      std::size_t j1 = 0;
      for (std::size_t i = 0; i < h; ++i) {
        const T s = tw_inv_[h + i];
        for (std::size_t j = j1; j < j1 + t; ++j) {
          const T u = x[j];
          const T v = x[j + t];
          x[j] = red_.add(u, v);
          x[j + t] = red_.mul(red_.sub(u, v), s);
        }
        j1 += 2 * t;
      }
      t <<= 1;
    }
    for (auto& c : x) c = red_.mul(c, n_inv_);
  }

  Coeffs<T> negacyclic_mul(const Coeffs<T>& a, const Coeffs<T>& b) const {
    Coeffs<T> ap(a), bp(b);
    forward(ap);
    forward(bp);
    Coeffs<T> y = pointwise_mul(red_, ap, bp);
    inverse(y);
    return y;
  }

 private:
  void check(const Coeffs<T>& x) const {
    if (x.size() != n_) throw std::invalid_argument("MergedNtt: wrong length");
  }

  Red red_{};
  std::size_t n_ = 0;
  T n_inv_{};
  std::vector<T> tw_, tw_inv_;
};

using MergedNtt128 = MergedNtt<nt::Barrett128, u128>;

/// The default host-side u64 tower engine: the merged transform above,
/// specialized for the 64-bit RNS towers with Shoup-precomputed twiddles.
/// forward() and inverse() are one nt::simd whole-transform call each: the
/// active ISA lane runs every stage with Harvey lazy reduction (values ride
/// in [0, 4q) forward / [0, 2q) inverse), canonicalizes once per forward
/// transform and fuses the inverse's n^-1 scaling into its
/// canonicalization pass.  The chip model's u64 datapath (chip::Mdmc) and
/// bfv::BatchEncoder (over Z_t) run this engine too.
///
/// tensor() is the fused NTT -> pointwise -> INTT tower kernel behind
/// Bfv::multiply and CpuTensorKernel: one call transforms all four operand
/// towers and emits the three tensor components without materializing
/// intermediate RnsPoly waves.  The engine is differentially tested against
/// CyclicNtt64 (poly/ntt.hpp) and the schoolbook product.
class MergedNtt64 {
 public:
  MergedNtt64() = default;
  /// The engine for a twiddle ROM and n^-1, as MergedNtt's; every word
  /// must be < q.
  MergedNtt64(const nt::Barrett64& red, std::vector<u64> rom, u64 n_inv);
  MergedNtt64(const nt::Barrett64& red, std::size_t n, u64 psi);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] const nt::Barrett64& ring() const noexcept { return red_; }
  [[nodiscard]] u64 modulus() const noexcept { return red_.modulus(); }
  /// The twiddle ROM image (psi^rev(i)), identical to MergedNtt128's for
  /// the same ring -- what the host preloads into the chip's TW bank.
  [[nodiscard]] const std::vector<u64>& twiddle_rom() const noexcept { return tw_; }

  /// Forward negacyclic NTT (CT/DIT, natural in, bit-reversed out).
  /// Canonical residues in, canonical residues out.
  void forward(Coeffs<u64>& x) const;
  /// Inverse negacyclic NTT (GS/DIF, bit-reversed in, natural out) with the
  /// n^-1 scaling fused into the canonicalization pass.
  void inverse(Coeffs<u64>& x) const;

  /// Fused negacyclic product of two towers.
  [[nodiscard]] Coeffs<u64> negacyclic_mul(const Coeffs<u64>& a,
                                           const Coeffs<u64>& b) const;

  /// Fused BFV tensor for one tower: y0 = a0*b0, y1 = a0*b1 + a1*b0,
  /// y2 = a1*b1 (negacyclic products), computed with 4 forward transforms,
  /// 4 pointwise kernels and 3 inverse transforms in one pass structure.
  void tensor(const Coeffs<u64>& a0, const Coeffs<u64>& a1,
              const Coeffs<u64>& b0, const Coeffs<u64>& b1, Coeffs<u64>& y0,
              Coeffs<u64>& y1, Coeffs<u64>& y2) const;

 private:
  void check(const Coeffs<u64>& x) const {
    if (x.size() != n_) throw std::invalid_argument("MergedNtt64: wrong length");
  }

  nt::Barrett64 red_{};
  std::size_t n_ = 0;
  u64 n_inv_ = 0, n_inv_shoup_ = 0;
  std::vector<u64> tw_, tw_shoup_;          // psi^rev(i) + Shoup companions
  std::vector<u64> tw_inv_, tw_inv_shoup_;  // psi^-rev(i) + Shoup companions
};

}  // namespace cofhee::poly
