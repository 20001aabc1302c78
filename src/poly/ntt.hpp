// Cyclic Number Theoretic Transform, CyclicNtt<Red, T>: the paper's
// explicit psi-scaling form (Algorithms 1-2).  It is tested against the
// schoolbook product and kept as the independent reference for the merged
// engines of poly/merged_ntt.hpp, which the chip model, BFV and the batch
// encoder run.
//
// The forward transform is a Gentleman-Sande decimation-in-frequency pass
// over the n-th root omega (natural input -> bit-reversed output); the
// inverse is a Cooley-Tukey decimation-in-time pass (bit-reversed input ->
// natural output) plus the trailing n^-1 scaling (the chip's CMODMUL by
// INV_POLYDEG).  Negacyclic semantics come from explicit psi pre-scaling /
// psi^-1 post-scaling, exactly Algorithm 2 of the paper.  NTT and iNTT share
// a single omega table (paper Section VIII-B): inverse twiddles are read at
// mirrored addresses using omega^-e = -omega^(n/2 - e).
// Note: the paper's Algorithm 1 listing terminates its stage loop at
// distance 2, omitting the final distance-1 stage; the cycle counts in
// Table XI ((n/2)*log2 n butterflies) confirm the full log2 n stages, so we
// implement the complete transform.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "nt/barrett.hpp"
#include "nt/primes.hpp"
#include "poly/polynomial.hpp"

namespace cofhee::poly {

/// Cyclic NTT over the n-th root of unity omega = psi^2, with explicit psi
/// scaling for negacyclic products (paper Algorithm 2).
template <class Red, class T>
class CyclicNtt {
 public:
  CyclicNtt() = default;

  CyclicNtt(const Red& red, std::size_t n, T psi) : red_(red), n_(n) {
    if (!nt::is_power_of_two(n) || n < 2)
      throw std::invalid_argument("CyclicNtt: n must be 2^k, k >= 1");
    omega_ = red_.mul(psi, psi);
    if (red_.pow(psi, static_cast<T>(n)) != red_.modulus() - 1)
      throw std::invalid_argument("CyclicNtt: psi is not a primitive 2n-th root");
    const T psi_inv = red_.inv(psi);
    n_inv_ = red_.inv(static_cast<T>(n));
    // Twiddle ROM layout: omega^j for j in [0, n/2), natural order.
    tw_.resize(n / 2);
    T w = 1;
    for (std::size_t j = 0; j < n / 2; ++j) {
      tw_[j] = w;
      w = red_.mul(w, omega_);
    }
    // psi powers for the negacyclic pre/post scaling passes.
    psi_pow_.resize(n);
    psi_inv_pow_.resize(n);
    T p = 1, pi = 1;
    for (std::size_t j = 0; j < n; ++j) {
      psi_pow_[j] = p;
      psi_inv_pow_[j] = pi;
      p = red_.mul(p, psi);
      pi = red_.mul(pi, psi_inv);
    }
  }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] const Red& ring() const noexcept { return red_; }
  [[nodiscard]] T omega() const noexcept { return omega_; }
  [[nodiscard]] T n_inv() const noexcept { return n_inv_; }
  [[nodiscard]] const std::vector<T>& twiddle_rom() const noexcept { return tw_; }
  [[nodiscard]] const std::vector<T>& psi_powers() const noexcept { return psi_pow_; }
  [[nodiscard]] const std::vector<T>& psi_inv_powers() const noexcept {
    return psi_inv_pow_;
  }

  /// Twiddle for forward butterflies: omega^e, e in [0, n/2).
  [[nodiscard]] T fwd_twiddle(std::size_t e) const noexcept { return tw_[e]; }

  /// Twiddle for inverse butterflies: omega^-e, read from the same ROM at
  /// the mirrored address (omega^-e = -omega^(n/2 - e) since omega^(n/2)=-1).
  [[nodiscard]] T inv_twiddle(std::size_t e) const noexcept {
    return e == 0 ? T{1} : red_.neg(tw_[n_ / 2 - e]);
  }

  /// Forward cyclic NTT, GS/DIF, natural order in -> bit-reversed order out.
  void forward(Coeffs<T>& x) const {
    check(x);
    for (std::size_t t = n_ / 2; t >= 1; t >>= 1) {
      const std::size_t stride = n_ / (2 * t);  // twiddle exponent step
      for (std::size_t g = 0; g < n_ / (2 * t); ++g) {
        const std::size_t base = 2 * g * t;
        for (std::size_t j = 0; j < t; ++j) {
          const std::size_t k = base + j;
          const T u = x[k];
          const T v = x[k + t];
          x[k] = red_.add(u, v);
          x[k + t] = red_.mul(red_.sub(u, v), fwd_twiddle(j * stride));
        }
      }
    }
  }

  /// Inverse cyclic NTT, CT/DIT, bit-reversed in -> natural out, scaled by
  /// n^-1.
  void inverse(Coeffs<T>& x) const {
    check(x);
    for (std::size_t t = 1; t <= n_ / 2; t <<= 1) {
      const std::size_t stride = n_ / (2 * t);
      for (std::size_t g = 0; g < n_ / (2 * t); ++g) {
        const std::size_t base = 2 * g * t;
        for (std::size_t j = 0; j < t; ++j) {
          const std::size_t k = base + j;
          const T u = x[k];
          const T v = red_.mul(x[k + t], inv_twiddle(j * stride));
          x[k] = red_.add(u, v);
          x[k + t] = red_.sub(u, v);
        }
      }
    }
    for (auto& c : x) c = red_.mul(c, n_inv_);
  }

  /// Negacyclic product via Algorithm 2: psi scaling + cyclic NTT.
  Coeffs<T> negacyclic_mul(const Coeffs<T>& a, const Coeffs<T>& b) const {
    Coeffs<T> ap(a), bp(b);
    for (std::size_t i = 0; i < n_; ++i) {
      ap[i] = red_.mul(ap[i], psi_pow_[i]);
      bp[i] = red_.mul(bp[i], psi_pow_[i]);
    }
    forward(ap);
    forward(bp);
    Coeffs<T> y = pointwise_mul(red_, ap, bp);
    inverse(y);
    for (std::size_t i = 0; i < n_; ++i) y[i] = red_.mul(y[i], psi_inv_pow_[i]);
    return y;
  }

 private:
  void check(const Coeffs<T>& x) const {
    if (x.size() != n_) throw std::invalid_argument("CyclicNtt: wrong length");
  }

  Red red_{};
  std::size_t n_ = 0;
  T omega_{}, n_inv_{};
  std::vector<T> tw_, psi_pow_, psi_inv_pow_;
};

using CyclicNtt64 = CyclicNtt<nt::Barrett64, u64>;
using CyclicNtt128 = CyclicNtt<nt::Barrett128, u128>;

}  // namespace cofhee::poly
