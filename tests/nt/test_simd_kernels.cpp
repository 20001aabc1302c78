// Differential battery for the SIMD kernel dispatch layer (src/nt/simd.hpp).
//
// Contract under test: every vector lane (AVX2, AVX-512, NEON) is bit-exact
// against the scalar reference lane on every kernel, over seeded random
// inputs, boundary values (0, 1, q-1, q, 2q-1, 4q-1), vector-width tails
// (odd lengths), and several moduli up to the 62-bit Barrett64 ceiling.
// The whole-transform entries run per lane over n = 1 ... 2^14, including
// the top of their lazy input ranges.  Also pins the runtime dispatch
// rules: force_isa() on an unavailable lane is a no-op returning false, and
// the active table always matches the active lane.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "nt/barrett.hpp"
#include "nt/primes.hpp"
#include "nt/simd.hpp"
#include "poly/merged_ntt.hpp"

namespace cofhee::nt::simd {
// Lane parameters print by name in test listings.
inline void PrintTo(Isa isa, std::ostream* os) { *os << isa_name(isa); }
}  // namespace cofhee::nt::simd

namespace {

using cofhee::nt::u128;
using cofhee::nt::u64;
namespace simd = cofhee::nt::simd;
using simd::Isa;

// Every vector lane this binary compiled in AND this CPU can run.  Empty
// under -DCOFHEE_SIMD=OFF (or on a CPU without AVX2/NEON); the differential
// loops then vacuously pass and the dispatch tests still run.
std::vector<Isa> vector_lanes() {
  std::vector<Isa> lanes;
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512, Isa::kNeon})
    if (simd::available(isa)) lanes.push_back(isa);
  return lanes;
}

// Moduli spanning the supported range: tiny (maximal wraparound pressure in
// the lazy ranges), mid-size, NTT-friendly, and just under the 62-bit
// Barrett64 ceiling (4q - 1 brushes 2^64).
const u64 kModuli[] = {
    17,
    12289,                       // classic NTT prime
    (u64{1} << 45) + 39,         // mid-size odd
    4611686018427387847ull,      // largest prime below 2^62
};

// Lengths covering the empty case, sub-vector lengths, exact vector
// multiples, and tails for both 4-wide (AVX2) and 2-wide (NEON) bodies.
const std::size_t kLens[] = {0, 1, 2, 3, 4, 5, 7, 8, 31, 64, 257};

u64 shoup_of(u64 w, u64 q) {
  return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

// Seeded values below `bound`, with the boundary values of the kernel's
// admissible range planted at the front (clamped to the vector length).
std::vector<u64> seeded(std::mt19937_64& rng, std::size_t len, u64 q,
                        u128 bound) {
  std::vector<u64> v(len);
  for (auto& x : v) x = static_cast<u64>(rng() % bound);
  const u64 edges[] = {0,
                       1,
                       q - 1,
                       q,
                       q + 1,
                       static_cast<u64>((bound > q) ? 2 * (u128)q - 1 : 0),
                       static_cast<u64>(bound - 1)};
  for (std::size_t i = 0; i < len && i < std::size(edges); ++i)
    if (edges[i] < bound) v[i] = edges[i];
  return v;
}

}  // namespace

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(simd::available(Isa::kScalar));
  EXPECT_STREQ(simd::isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(Isa::kNeon), "neon");
  EXPECT_STREQ(simd::isa_name(Isa::kAvx512), "avx512");
}

TEST(SimdDispatch, ForceAndClear) {
  // Forcing any available lane redirects kernels() to that lane's table.
  for (Isa isa : vector_lanes()) {
    ASSERT_TRUE(simd::force_isa(isa));
    EXPECT_EQ(simd::active_isa(), isa);
    EXPECT_EQ(&simd::kernels(), &simd::kernels_for(isa));
    simd::clear_forced_isa();
  }
  ASSERT_TRUE(simd::force_isa(Isa::kScalar));
  EXPECT_EQ(simd::active_isa(), Isa::kScalar);
  EXPECT_EQ(&simd::kernels(), &simd::kernels_for(Isa::kScalar));
  simd::clear_forced_isa();
  // AVX2 and NEON are mutually exclusive compile targets, so at least one
  // of them is always the unavailable-lane fallback case: force_isa must
  // refuse and leave the active lane untouched.
  const Isa before = simd::active_isa();
  const Isa missing = simd::available(Isa::kAvx2) ? Isa::kNeon : Isa::kAvx2;
  EXPECT_FALSE(simd::available(missing));
  EXPECT_FALSE(simd::force_isa(missing));
  EXPECT_EQ(simd::active_isa(), before);
  EXPECT_THROW((void)simd::kernels_for(missing), std::invalid_argument);
}

TEST(SimdDispatch, ActiveIsBestAvailable) {
  simd::clear_forced_isa();
  const Isa active = simd::active_isa();
  EXPECT_TRUE(simd::available(active));
  // When a vector lane is available, automatic detection must pick it.
  if (!vector_lanes().empty()) {
    EXPECT_NE(active, Isa::kScalar);
  }
  if (simd::available(Isa::kAvx512)) {
    EXPECT_EQ(active, Isa::kAvx512);
  }
}

TEST(SimdKernels, PointwiseMulBitExact) {
  const auto& ref = simd::kernels_for(Isa::kScalar);
  for (u64 q : kModuli) {
    const cofhee::nt::Barrett64 red(q);
    std::mt19937_64 rng(0xC0F4EE04 ^ q);
    for (std::size_t len : kLens) {
      const auto a = seeded(rng, len, q, q);
      const auto b = seeded(rng, len, q, q);
      std::vector<u64> d0(len, 0);
      ref.pointwise_mul(d0.data(), a.data(), b.data(), len, q, red.mu(), red.k());
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(d0[i], red.mul(a[i], b[i]));  // scalar lane == Barrett64
      for (Isa isa : vector_lanes()) {
        std::vector<u64> d1(len, 0);
        simd::kernels_for(isa).pointwise_mul(d1.data(), a.data(), b.data(), len,
                                             q, red.mu(), red.k());
        ASSERT_EQ(d0, d1) << simd::isa_name(isa) << " q=" << q << " len=" << len;
      }
    }
  }
}

TEST(SimdKernels, PointwiseMulAccBitExact) {
  const auto& ref = simd::kernels_for(Isa::kScalar);
  for (u64 q : kModuli) {
    const cofhee::nt::Barrett64 red(q);
    std::mt19937_64 rng(0xC0F4EE05 ^ q);
    for (std::size_t len : kLens) {
      const auto a = seeded(rng, len, q, q);
      const auto b = seeded(rng, len, q, q);
      const auto acc = seeded(rng, len, q, q);
      auto d0 = acc;
      ref.pointwise_mul_acc(d0.data(), a.data(), b.data(), len, q, red.mu(),
                            red.k());
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(d0[i], red.add(acc[i], red.mul(a[i], b[i])));
      for (Isa isa : vector_lanes()) {
        auto d1 = acc;
        simd::kernels_for(isa).pointwise_mul_acc(d1.data(), a.data(), b.data(),
                                                 len, q, red.mu(), red.k());
        ASSERT_EQ(d0, d1) << simd::isa_name(isa) << " q=" << q << " len=" << len;
      }
    }
  }
}

TEST(SimdKernels, ScalarMulShoupBitExactOnFullRange) {
  const auto& ref = simd::kernels_for(Isa::kScalar);
  for (u64 q : kModuli) {
    std::mt19937_64 rng(0xC0F4EE06 ^ q);
    for (std::size_t len : kLens) {
      // Accepts ANY u64 input (this pass doubles as the inverse transform's
      // canonicalization), so draw from the full 64-bit range.
      auto x0 = seeded(rng, len, q, static_cast<u128>(1) << 64);
      const u64 w = static_cast<u64>(rng() % q);
      const u64 ws = shoup_of(w, q);
      auto x1 = x0;
      ref.scalar_mul_shoup(x0.data(), len, w, ws, q);
      for (std::size_t i = 0; i < len; ++i) ASSERT_LT(x0[i], q);
      for (Isa isa : vector_lanes()) {
        auto xi = x1;
        simd::kernels_for(isa).scalar_mul_shoup(xi.data(), len, w, ws, q);
        ASSERT_EQ(x0, xi) << simd::isa_name(isa) << " q=" << q << " len=" << len;
      }
    }
  }
}

// The runtime-dispatch fallback: the kernels() table observed under a scalar
// pin computes the same answers as the free-running (possibly vector) table.
TEST(SimdKernels, DispatchFallbackMatchesVector) {
  const u64 q = 12289;
  const cofhee::nt::Barrett64 red(q);
  std::mt19937_64 rng(0xC0F4EE08);
  const std::size_t len = 100;
  const auto a = seeded(rng, len, q, q);
  const auto b = seeded(rng, len, q, q);

  simd::clear_forced_isa();
  std::vector<u64> fast(len, 0);
  simd::kernels().pointwise_mul(fast.data(), a.data(), b.data(), len, q,
                                red.mu(), red.k());
  ASSERT_TRUE(simd::force_isa(Isa::kScalar));
  std::vector<u64> slow(len, 0);
  simd::kernels().pointwise_mul(slow.data(), a.data(), b.data(), len, q,
                                red.mu(), red.k());
  simd::clear_forced_isa();
  EXPECT_EQ(fast, slow);
}

// ---------------------------------------------------------------------------
// Whole-transform entries, one test instance per lane.  A lane this binary
// or CPU lacks skips its own instances only.
// ---------------------------------------------------------------------------

namespace {

// The tables MergedNtt64 hands the kernels for one (q, n).
struct NttTables {
  u64 q, n_inv, n_inv_shoup;
  std::vector<u64> w, ws, wi, wis;

  NttTables(u64 q_, std::size_t n) : q(q_) {
    const cofhee::nt::Barrett64 red(q);
    w = n == 1 ? std::vector<u64>{1}
               : cofhee::poly::twiddle_rom(red, n,
                                           cofhee::nt::primitive_2nth_root(q, n));
    wi = cofhee::poly::detail::mirror_twiddles(red, w);
    for (u64 v : w) ws.push_back(shoup_of(v, q));
    for (u64 v : wi) wis.push_back(shoup_of(v, q));
    n_inv = red.inv(static_cast<u64>(n));
    n_inv_shoup = shoup_of(n_inv, q);
  }
  void forward(const simd::KernelTable& k, std::vector<u64>& x) const {
    k.ntt_forward(x.data(), x.size(), w.data(), ws.data(), q);
  }
  void inverse(const simd::KernelTable& k, std::vector<u64>& x) const {
    k.ntt_inverse(x.data(), x.size(), wi.data(), wis.data(), n_inv, n_inv_shoup, q);
  }
};

// Random, all-0, all-(q-1) and alternating 0/(q-1) canonical inputs.
std::vector<std::vector<u64>> ntt_inputs(std::size_t n, u64 q) {
  std::mt19937_64 rng(0xC0F4EE10 ^ q ^ n);
  std::vector<std::vector<u64>> in(4, std::vector<u64>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    in[0][i] = rng() % q;
    in[2][i] = q - 1;
    in[3][i] = i % 2 ? q - 1 : 0;
  }
  return in;
}

class SimdNtt : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!simd::available(GetParam()))
      GTEST_SKIP() << simd::isa_name(GetParam()) << " lane unavailable";
  }
};

// n = 1, 2, 4, ..., 2^14 over a small NTT prime (65537 = 1 + 2^16) and
// the largest NTT prime below 2^62 for that n, where 4q - 1 brushes 2^64.
template <class Body>
void for_each_ring(Body&& body) {
  for (std::size_t n = 1; n <= (std::size_t{1} << 14); n <<= 1)
    for (u64 q : {u64{65537}, cofhee::nt::find_ntt_prime_u64(62, n)})
      body(n, NttTables(q, n));
}

}  // namespace

TEST_P(SimdNtt, ForwardMatchesScalarLaneAndInverseRoundTrips) {
  const auto& ref = simd::kernels_for(Isa::kScalar);
  const auto& lane = simd::kernels_for(GetParam());
  for_each_ring([&](std::size_t n, const NttTables& t) {
    for (const auto& input : ntt_inputs(n, t.q)) {
      auto want = input, got = input;
      t.forward(ref, want);
      t.forward(lane, got);
      ASSERT_EQ(got, want) << "n=" << n << " q=" << t.q;
      for (u64 v : got) ASSERT_LT(v, t.q) << "n=" << n << " q=" << t.q;
      t.inverse(lane, got);
      ASSERT_EQ(got, input) << "n=" << n << " q=" << t.q;
    }
  });
}

TEST_P(SimdNtt, AcceptTheTopOfTheirLazyInputRanges) {
  // The forward transform accepts [0, 4q) and the inverse [0, 2q): seeded
  // words with the range edges planted (and every word at the top of the
  // range) give the transform of their residues.
  const auto& lane = simd::kernels_for(GetParam());
  for_each_ring([&](std::size_t n, const NttTables& t) {
    std::mt19937_64 rng(0xC0F4EE11 ^ t.q ^ n);
    for (const u128 top : {4 * static_cast<u128>(t.q), 2 * static_cast<u128>(t.q)}) {
      for (auto lazy : {seeded(rng, n, t.q, top), std::vector<u64>(n, static_cast<u64>(top - 1))}) {
        std::vector<u64> residue(lazy);
        for (u64& v : residue) v %= t.q;
        const bool fwd = top == 4 * static_cast<u128>(t.q);
        if (fwd) {
          t.forward(lane, lazy);
          t.forward(lane, residue);
        } else {
          t.inverse(lane, lazy);
          t.inverse(lane, residue);
        }
        ASSERT_EQ(lazy, residue) << "n=" << n << " q=" << t.q << (fwd ? " forward" : " inverse");
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Lanes, SimdNtt,
                         ::testing::Values(Isa::kScalar, Isa::kAvx2, Isa::kAvx512,
                                           Isa::kNeon),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return std::string(simd::isa_name(info.param));
                         });
