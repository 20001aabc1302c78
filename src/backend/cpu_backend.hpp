// CPU software baseline -- the role Microsoft SEAL 3.7 plays in Fig. 6.
//
// SEAL is not available offline, so this is a from-scratch 64-bit RNS BFV
// kernel with the same structure SEAL executes for an EvalMult without
// relinearization: per tower, 4 forward NTTs, 4 Hadamard products, 1 add,
// and 3 inverse NTTs (Shoup multiplication in the butterflies).  The
// multi-threaded variant parallelizes across towers and, inside a tower,
// across butterfly blocks -- mirroring how SEAL saturates cores.
// The analytic power model is calibrated to the paper's powertop readings
// (1.48 W / 2.3 W single-thread; near-linear growth with threads) so Fig.
// 6b can be regenerated even though this container has no power counters.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "backend/exec_policy.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/rns.hpp"

namespace cofhee::backend {

using poly::Coeffs;
using poly::RnsPoly;
using nt::u64;

/// Tensor workload for one (n, towers) configuration.  Carries an
/// ExecPolicy so callers pick serial vs pooled execution at construction.
class CpuTensorKernel {
 public:
  CpuTensorKernel(std::size_t n, const std::vector<u64>& moduli,
                  ExecPolicy policy = ExecPolicy::serial());

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t towers() const noexcept { return ntts_.size(); }
  [[nodiscard]] const Executor& exec() const noexcept { return exec_; }

  struct Output {
    RnsPoly y0, y1, y2;
  };

  /// EvalMult tensor (Eq. 4 numerators) on the carried execution policy.
  Output multiply(const RnsPoly& a0, const RnsPoly& a1, const RnsPoly& b0,
                  const RnsPoly& b1) const;

  /// 64-bit modular-multiply count of one tensor (for the power model).
  [[nodiscard]] std::uint64_t modmul_count() const;

 private:
  std::size_t n_;
  // Fused/SIMD tower engines (MergedNtt64).
  std::vector<poly::MergedNtt64> ntts_;
  std::vector<nt::Barrett64> rings_;
  Executor exec_;
};

/// Calibrated CPU power model (substitute for powertop on the Ryzen 5800H;
/// see DESIGN.md).  Anchors: 1 thread at (n=2^12, 2 towers) -> 1.48 W and
/// (n=2^13, 4 towers) -> 2.3 W; threads add near-linearly above idle.
struct CpuPowerModel {
  double idle_w = 0.55;

  /// Active package power for `threads` threads on a workload of
  /// n coefficients x towers.
  [[nodiscard]] double watts(std::size_t n, std::size_t towers,
                             unsigned threads) const {
    // log2(n * towers): 13 -> 1.48 W, 15 -> 2.3 W at one thread.
    const double x = std::log2(static_cast<double>(n) * static_cast<double>(towers));
    const double p1 = 1.48 + (2.3 - 1.48) * (x - 13.0) / 2.0;
    const double per_thread = p1 - idle_w;
    // Diminishing per-thread power once past physical parallelism is not
    // modeled; the paper reports near-linear growth.
    return idle_w + per_thread * static_cast<double>(threads);
  }
};

/// Amdahl-style thread-scaling model for the SEAL runtime, calibrated so a
/// 16-thread run undercuts one CoFHEE instance (Section VI-B).
struct CpuTimeModel {
  double parallel_fraction = 0.95;

  [[nodiscard]] double ms(double single_thread_ms, unsigned threads) const {
    const double f = parallel_fraction;
    return single_thread_ms * ((1.0 - f) + f / static_cast<double>(threads));
  }
};

}  // namespace cofhee::backend
