// Host kernel dispatch: the fused tensor on the scalar lane vs each vector
// lane, per ring size, on the BFV tensor workload of one 64-bit RNS tower
// (4 forward NTT + 4 pointwise + 3 inverse NTT -- the hot loop behind
// Bfv::multiply).
//
//  * fused       -- MergedNtt64::tensor pinned to the scalar ISA lane:
//                   lazy-reduction butterflies + the single-pass tensor
//                   structure, no vector instructions.  This is the
//                   reference: the code a CPU without vector lanes, or a
//                   COFHEE_SIMD=OFF build, runs.
//  * fused+simd  -- the same tensor pinned to each vector lane this CPU
//                   has (AVX2, AVX-512, NEON), one row per lane; none in a
//                   COFHEE_SIMD=OFF build.
//
// The bench asserts in-binary that every vector lane is bit-identical to
// and at least as fast as the scalar reference on every scenario (with a
// small tolerance for timer noise), so a lane that is not the one
// active_isa() picks is still held to the floor -- a regression here fails
// `ctest -L bench` even before the JSON diff runs.  Wall-clock milliseconds
// are machine-dependent and stay out of the regression JSON; the
// deterministic modular-multiplication counts and per-coefficient pass
// counts (the model of *why* the fused path wins) are what bench_diff.py
// tracks.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/report.hpp"
#include "nt/primes.hpp"
#include "nt/simd.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/sampler.hpp"

namespace {

using namespace cofhee;
using poly::Coeffs;
using poly::u64;

struct Scenario {
  std::size_t n;
  unsigned bits;
  int reps;  // best-of repetitions (smaller rings get more)
};

const Scenario kScenarios[] = {
    {1u << 10, 59, 40},
    {1u << 12, 59, 15},
    {1u << 13, 59, 8},
};

struct Operands {
  Coeffs<u64> a0, a1, b0, b1;
};

Operands make_operands(std::size_t n, u64 q) {
  poly::Rng rng(0xD15'BA7C4);
  return {poly::sample_uniform(rng, n, q), poly::sample_uniform(rng, n, q),
          poly::sample_uniform(rng, n, q), poly::sample_uniform(rng, n, q)};
}

/// Best-of-`reps` wall ms of each body, after one warm-up call each.  The
/// repetitions interleave (body 0, body 1, ..., body 0, ...) so a load
/// spike from other processes hits every path alike instead of whichever
/// path happened to be timing when it struck.
std::vector<double> best_of_ms(int reps, const std::vector<std::function<void()>>& bodies) {
  for (const auto& body : bodies) body();  // warm-up
  std::vector<double> best(bodies.size(), 1e30);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      bodies[i]();
      const auto t1 = std::chrono::steady_clock::now();
      best[i] = std::min(best[i],
                         std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  cofhee::bench::BenchIo io(argc, argv);
  eval::MetricsJson& metrics = io.metrics();

  using nt::simd::Isa;
  std::vector<Isa> lanes;  // every vector lane this binary and CPU can run
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512, Isa::kNeon})
    if (nt::simd::available(isa)) lanes.push_back(isa);
  std::printf("best ISA lane: %s (scalar lane always available)\n",
              nt::simd::isa_name(nt::simd::active_isa()));

  bool ok = true;
  for (const auto& sc : kScenarios) {
    const std::size_t n = sc.n;
    const unsigned logn = nt::log2_exact(n);
    const u64 q = nt::find_ntt_prime_u64(sc.bits, n);
    const u64 psi = nt::primitive_2nth_root(q, n);
    const nt::Barrett64 red(q);
    const poly::MergedNtt64 fused_ntt(red, n, psi);
    const Operands op = make_operands(n, q);

    // Body 0 is the fused tensor on the scalar lane (the reference), body
    // 1 + i the fused tensor on lanes[i].
    std::vector<std::array<Coeffs<u64>, 3>> out(1 + lanes.size());
    std::vector<std::function<void()>> bodies;
    for (std::size_t b = 0; b < out.size(); ++b)
      bodies.push_back([&, b] {
        (void)nt::simd::force_isa(b == 0 ? Isa::kScalar : lanes[b - 1]);
        fused_ntt.tensor(op.a0, op.a1, op.b0, op.b1, out[b][0], out[b][1], out[b][2]);
        nt::simd::clear_forced_isa();
      });
    const std::vector<double> ms = best_of_ms(sc.reps, bodies);

    // Every lane must agree bit-for-bit (the test battery holds this
    // contract too; the bench re-checks on its own operands for free).
    for (std::size_t i = 0; i < lanes.size(); ++i)
      if (out[1 + i] != out[0]) {
        std::fprintf(stderr, "n=%zu: fused tensor (%s) != scalar reference\n", n,
                     nt::simd::isa_name(lanes[i]));
        ok = false;
      }

    // Deterministic cost model (regression-tracked): every lane runs the
    // same 7 * (n/2) * logn butterflies, 4n pointwise muls and 3n scaling
    // muls per tensor, and lazy reduction drops 2 conditional subtractions
    // per butterfly against a canonical one -- the vector lanes' win is
    // SIMD width, not arithmetic count.  Wall clock is machine-dependent
    // and excluded; these counts pin the workload shape the timings were
    // taken on.
    const std::uint64_t butterflies = 7ull * (n / 2) * logn;
    const std::uint64_t modmuls = butterflies + 7ull * n;
    const std::uint64_t lazy_csubs_saved = 2 * butterflies;
    const std::string key = "n" + std::to_string(n) + "/";
    metrics.set(key + "butterflies", static_cast<double>(butterflies));
    metrics.set(key + "modmuls", static_cast<double>(modmuls));
    metrics.set(key + "lazy_csubs_saved", static_cast<double>(lazy_csubs_saved));

    eval::section("kernel dispatch, n = 2^" + std::to_string(logn) +
                  " (one 59-bit tower, BFV tensor)");
    eval::Table t({"path", "lane", "best ms", "vs scalar"});
    t.row({"fused", "scalar", eval::fmt(ms[0], 3), "1.00x"});
    for (std::size_t i = 0; i < lanes.size(); ++i)
      t.row({"fused+simd", nt::simd::isa_name(lanes[i]), eval::fmt(ms[1 + i], 3),
             eval::fmt(ms[0] / ms[1 + i], 2) + "x"});
    t.print();

    // The hard floor: no vector lane may lose to the scalar lane.  5%
    // tolerance absorbs timer noise on the small rings.
    for (std::size_t i = 0; i < lanes.size(); ++i)
      if (ms[1 + i] > ms[0] * 1.05) {
        std::fprintf(stderr,
                     "REGRESSION: n=%zu fused+simd (%s) %.3f ms slower than "
                     "scalar %.3f ms\n",
                     n, nt::simd::isa_name(lanes[i]), ms[1 + i], ms[0]);
        ok = false;
      }
  }

  if (ok) std::puts("\nevery fused+simd lane >= scalar on every scenario: OK");
  return (io.finish() && ok) ? 0 : 1;
}
