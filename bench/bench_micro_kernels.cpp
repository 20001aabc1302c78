// google-benchmark micro kernels: the Barrett-vs-Montgomery design choice
// (paper Section IV-A), the two NTT organizations (merged psi twiddles vs
// explicit psi scaling, Algorithm 2), and the 64-bit tower primitives the
// CPU baseline is built from.
#include <benchmark/benchmark.h>

#include "nt/barrett.hpp"
#include "nt/montgomery.hpp"
#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/ntt.hpp"
#include "poly/sampler.hpp"

namespace {

using namespace cofhee;
using nt::u128;
using nt::u64;

void BM_Barrett64Mul(benchmark::State& state) {
  const u64 q = nt::find_ntt_prime_u64(55, 4096);
  nt::Barrett64 br(q);
  poly::Rng rng(1);
  u64 a = rng.uniform_below(q), b = rng.uniform_below(q) | 1;
  for (auto _ : state) {
    a = br.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Barrett64Mul);

void BM_Montgomery64MulRaw(benchmark::State& state) {
  // Montgomery-domain operands (the favorable case for Montgomery).
  const u64 q = nt::find_ntt_prime_u64(55, 4096);
  nt::Montgomery64 mont(q);
  poly::Rng rng(2);
  u64 a = mont.to_mont(rng.uniform_below(q)), b = mont.to_mont(rng.uniform_below(q));
  for (auto _ : state) {
    a = mont.mul_raw(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Montgomery64MulRaw);

void BM_Montgomery64MulWithTransforms(benchmark::State& state) {
  // The cost the paper's Section IV-A rationale counts: operands must be
  // transformed into/out of the Montgomery domain.
  const u64 q = nt::find_ntt_prime_u64(55, 4096);
  nt::Montgomery64 mont(q);
  poly::Rng rng(3);
  u64 a = rng.uniform_below(q), b = rng.uniform_below(q) | 1;
  for (auto _ : state) {
    a = mont.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Montgomery64MulWithTransforms);

void BM_Barrett128Mul(benchmark::State& state) {
  // The chip's native datapath width.
  const u128 q = nt::find_ntt_prime_u128(109, 4096);
  nt::Barrett128 br(q);
  poly::Rng rng(4);
  u128 a = rng.uniform_u128_below(q), b = rng.uniform_u128_below(q) | 1;
  for (auto _ : state) {
    a = br.mul(a, b);
    benchmark::DoNotOptimize(&a);
  }
}
BENCHMARK(BM_Barrett128Mul);

void BM_ShoupMul(benchmark::State& state) {
  const u64 q = nt::find_ntt_prime_u64(55, 4096);
  poly::Rng rng(5);
  nt::ShoupMul sm(rng.uniform_below(q), q);
  u64 x = rng.uniform_below(q);
  for (auto _ : state) {
    x = sm.mul(x) | 1;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ShoupMul);

void BM_MergedNtt64Forward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const u64 q = nt::find_ntt_prime_u64(55, n);
  nt::Barrett64 br(q);
  poly::MergedNtt64 ntt(br, n, nt::primitive_2nth_root(q, n));
  poly::Rng rng(6);
  auto x = poly::sample_uniform(rng, n, q);
  for (auto _ : state) {
    ntt.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n / 2 * nt::log2_exact(n)));
}
BENCHMARK(BM_MergedNtt64Forward)->Arg(1 << 12)->Arg(1 << 13);

void BM_MergedVsScaledNtt128(benchmark::State& state) {
  // Ablation: merged psi twiddles (one command) vs explicit psi scaling +
  // omega-only cyclic NTT (Algorithm 2 written literally).
  const std::size_t n = 1u << 10;
  const u128 q = nt::find_ntt_prime_u128(109, n);
  nt::Barrett128 br(q);
  const u128 psi = nt::primitive_2nth_root(q, n);
  poly::MergedNtt128 merged(br, n, psi);
  poly::CyclicNtt128 scaled(br, n, psi);
  poly::Rng rng(7);
  const auto a = poly::sample_uniform128(rng, n, q);
  const auto b = poly::sample_uniform128(rng, n, q);
  const bool use_merged = state.range(0) == 1;
  for (auto _ : state) {
    auto y = use_merged ? merged.negacyclic_mul(a, b) : scaled.negacyclic_mul(a, b);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MergedVsScaledNtt128)->Arg(1)->Arg(0);

}  // namespace

BENCHMARK_MAIN();
