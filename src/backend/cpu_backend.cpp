#include "backend/cpu_backend.hpp"

#include <stdexcept>

#include "nt/primes.hpp"

namespace cofhee::backend {

CpuTensorKernel::CpuTensorKernel(std::size_t n, const std::vector<u64>& moduli,
                                 ExecPolicy policy)
    : n_(n), exec_(policy) {
  rings_.reserve(moduli.size());
  for (u64 q : moduli) rings_.emplace_back(q);
  // Twiddle-table construction is per-tower independent (root finding plus
  // O(n) table fills) -- the last serial loop in this kernel's setup.
  ntts_.resize(moduli.size());
  exec_.for_each(moduli.size(), [&](std::size_t i) {
    ntts_[i] = poly::MergedNtt64(rings_[i], n,
                                 nt::primitive_2nth_root(moduli[i], n));
  });
}

CpuTensorKernel::Output CpuTensorKernel::multiply(const RnsPoly& a0,
                                                  const RnsPoly& a1,
                                                  const RnsPoly& b0,
                                                  const RnsPoly& b1) const {
  if (a0.num_towers() != towers())
    throw std::invalid_argument("CpuTensorKernel: tower count mismatch");
  Output out;
  out.y0.towers.resize(towers());
  out.y1.towers.resize(towers());
  out.y2.towers.resize(towers());

  // Work decomposition: one fused MergedNtt64::tensor task per tower (4
  // forward transforms, 4 pointwise kernels, 3 inverse transforms with lazy
  // reduction and SIMD dispatch inside) -- no intermediate NTT-form wave is
  // materialized between a forward and a tensor stage anymore.
  exec_.for_each(towers(), [&](std::size_t tw) {
    ntts_[tw].tensor(a0.towers[tw], a1.towers[tw], b0.towers[tw],
                     b1.towers[tw], out.y0.towers[tw], out.y1.towers[tw],
                     out.y2.towers[tw]);
  });
  return out;
}

std::uint64_t CpuTensorKernel::modmul_count() const {
  const std::uint64_t logn = nt::log2_exact(n_);
  // Per tower: 7 transforms x (n/2 log n butterflies) + 4n Hadamard + n
  // scaling multiplies per inverse transform (3n).
  const std::uint64_t per_tower = 7 * (n_ / 2) * logn + 4 * n_ + 3 * n_;
  return per_tower * towers();
}

}  // namespace cofhee::backend
