#include "backend/cpu_backend.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "backend/thread_pool.hpp"
#include "nt/primes.hpp"
#include "poly/sampler.hpp"

namespace cofhee::backend {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadWorks) {
  ThreadPool pool(1);
  int sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

struct KernelFixture {
  std::size_t n = 128;
  std::vector<nt::u64> moduli{nt::find_ntt_prime_u64(54, 128),
                              nt::find_ntt_prime_u64(55, 128)};
  CpuTensorKernel kernel{n, moduli, ExecPolicy::pooled(2)};

  poly::RnsPoly random_rns(std::uint64_t seed) {
    poly::Rng rng(seed);
    poly::RnsPoly p;
    for (auto q : moduli) p.towers.push_back(poly::sample_uniform(rng, n, q));
    return p;
  }
};

TEST(CpuTensorKernel, MatchesSchoolbookTensor) {
  KernelFixture f;
  const auto a0 = f.random_rns(1), a1 = f.random_rns(2);
  const auto b0 = f.random_rns(3), b1 = f.random_rns(4);
  const auto out = f.kernel.multiply(a0, a1, b0, b1);
  for (std::size_t tw = 0; tw < f.moduli.size(); ++tw) {
    nt::Barrett64 ring(f.moduli[tw]);
    EXPECT_EQ(out.y0.towers[tw],
              poly::schoolbook_negacyclic_mul(ring, a0.towers[tw], b0.towers[tw]));
    const auto y1 = poly::pointwise_add(
        ring, poly::schoolbook_negacyclic_mul(ring, a0.towers[tw], b1.towers[tw]),
        poly::schoolbook_negacyclic_mul(ring, a1.towers[tw], b0.towers[tw]));
    EXPECT_EQ(out.y1.towers[tw], y1);
    EXPECT_EQ(out.y2.towers[tw],
              poly::schoolbook_negacyclic_mul(ring, a1.towers[tw], b1.towers[tw]));
  }
}

TEST(CpuTensorKernel, CarriedPolicyMatchesExplicitPool) {
  // Kernels constructed with an explicit serial or pooled(4) policy must
  // produce the same tensor as the fixture kernel carrying pooled(2).
  KernelFixture f;
  const auto a0 = f.random_rns(21), a1 = f.random_rns(22);
  const auto b0 = f.random_rns(23), b1 = f.random_rns(24);
  const auto expect = f.kernel.multiply(a0, a1, b0, b1);
  const CpuTensorKernel serial(f.n, f.moduli, ExecPolicy::serial());
  const CpuTensorKernel pooled(f.n, f.moduli, ExecPolicy::pooled(4));
  const auto rs = serial.multiply(a0, a1, b0, b1);
  const auto rp = pooled.multiply(a0, a1, b0, b1);
  EXPECT_EQ(rs.y0.towers, expect.y0.towers);
  EXPECT_EQ(rs.y1.towers, expect.y1.towers);
  EXPECT_EQ(rs.y2.towers, expect.y2.towers);
  EXPECT_EQ(rp.y0.towers, expect.y0.towers);
  EXPECT_EQ(rp.y1.towers, expect.y1.towers);
  EXPECT_EQ(rp.y2.towers, expect.y2.towers);
  EXPECT_EQ(f.kernel.exec().concurrency(), 2u);
  EXPECT_EQ(serial.exec().concurrency(), 1u);
  EXPECT_EQ(pooled.exec().concurrency(), 4u);
}

TEST(CpuTensorKernel, ThreadCountDoesNotChangeResult) {
  // The serial policy and pooled policies of 1, 4 and 16 threads must
  // produce the same tensor.
  KernelFixture f;
  const auto a0 = f.random_rns(5), a1 = f.random_rns(6);
  const auto b0 = f.random_rns(7), b1 = f.random_rns(8);
  const CpuTensorKernel serial(f.n, f.moduli, ExecPolicy::serial());
  EXPECT_EQ(serial.exec().concurrency(), 1u);
  const auto want = serial.multiply(a0, a1, b0, b1);
  for (std::size_t threads : {1, 4, 16}) {
    SCOPED_TRACE(threads);
    const CpuTensorKernel pooled(f.n, f.moduli, ExecPolicy::pooled(threads));
    EXPECT_EQ(pooled.exec().concurrency(), threads);
    const auto got = pooled.multiply(a0, a1, b0, b1);
    EXPECT_EQ(got.y0.towers, want.y0.towers);
    EXPECT_EQ(got.y1.towers, want.y1.towers);
    EXPECT_EQ(got.y2.towers, want.y2.towers);
  }
}

TEST(CpuTensorKernel, ModmulCountScalesWithWorkload) {
  KernelFixture f;
  // 2 towers, n=128: 7 * 64 * 7 + 7*128 per tower.
  const std::uint64_t per_tower = 7 * 64 * 7 + 4 * 128 + 3 * 128;
  EXPECT_EQ(f.kernel.modmul_count(), 2 * per_tower);
}

TEST(CpuPowerModel, MatchesPaperAnchors) {
  CpuPowerModel pm;
  // (n=2^12, 2 towers, 1 thread) -> 1.48 W; (n=2^13, 4 towers) -> 2.3 W.
  EXPECT_NEAR(pm.watts(1u << 12, 2, 1), 1.48, 1e-9);
  EXPECT_NEAR(pm.watts(1u << 13, 4, 1), 2.30, 1e-9);
  // Near-linear with threads (paper Section VI-B).
  const double p1 = pm.watts(1u << 12, 2, 1) - pm.idle_w;
  const double p4 = pm.watts(1u << 12, 2, 4) - pm.idle_w;
  EXPECT_NEAR(p4 / p1, 4.0, 1e-9);
}

TEST(CpuTimeModel, DiminishingReturns) {
  CpuTimeModel tm;
  const double t1 = tm.ms(6.91, 1);
  const double t4 = tm.ms(6.91, 4);
  const double t16 = tm.ms(6.91, 16);
  EXPECT_NEAR(t1, 6.91, 1e-9);
  EXPECT_LT(t4, t1);
  EXPECT_LT(t16, t4);
  // Speedup at 16 threads is well below 16x (diminishing returns).
  EXPECT_LT(t1 / t16, 16.0 * 0.7);
  // ...but enough to undercut one CoFHEE instance (3.58 ms at n=2^13).
  EXPECT_LT(t16, 3.58);
}

}  // namespace
}  // namespace cofhee::backend
