#include "poly/ntt.hpp"

#include <gtest/gtest.h>

#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/sampler.hpp"

namespace cofhee::poly {
namespace {

using nt::Barrett128;
using nt::Barrett64;

struct Fixture64 {
  std::size_t n;
  Barrett64 ring;
  u64 psi;
  Fixture64(std::size_t n_, unsigned bits, u64 seed = 0)
      : n(n_), ring(nt::find_ntt_prime_u64(bits, n_, seed)),
        psi(nt::primitive_2nth_root(ring.modulus(), n_)) {}
};

TEST(CyclicNtt64, ForwardInverseRoundTrip) {
  Fixture64 f(256, 40);
  CyclicNtt64 ntt(f.ring, f.n, f.psi);
  Rng rng(42);
  const auto x = sample_uniform(rng, f.n, f.ring.modulus());
  auto y = x;
  ntt.forward(y);
  EXPECT_NE(y, x);  // astronomically unlikely to be a fixed point
  ntt.inverse(y);
  EXPECT_EQ(y, x);
}

TEST(CyclicNtt64, ForwardIsBitReversedDft) {
  // X[rev(k)] = sum_j x[j] omega^(jk): check directly at small n.
  const std::size_t n = 16;
  Fixture64 f(n, 20);
  CyclicNtt64 ntt(f.ring, n, f.psi);
  Rng rng(43);
  const auto x = sample_uniform(rng, n, f.ring.modulus());
  auto y = x;
  ntt.forward(y);
  const auto rev = nt::bit_reverse_table(n);
  for (std::size_t k = 0; k < n; ++k) {
    u64 acc = 0;
    for (std::size_t j = 0; j < n; ++j)
      acc = f.ring.add(acc, f.ring.mul(x[j], f.ring.pow(ntt.omega(), j * k)));
    EXPECT_EQ(y[rev[k]], acc) << "bin " << k;
  }
}

TEST(CyclicNtt64, ConvolutionTheoremCyclic) {
  Fixture64 f(128, 30);
  CyclicNtt64 ntt(f.ring, f.n, f.psi);
  Rng rng(44);
  const auto a = sample_uniform(rng, f.n, f.ring.modulus());
  const auto b = sample_uniform(rng, f.n, f.ring.modulus());
  auto fa = a, fb = b;
  ntt.forward(fa);
  ntt.forward(fb);
  auto y = pointwise_mul(f.ring, fa, fb);
  ntt.inverse(y);
  EXPECT_EQ(y, schoolbook_cyclic_mul(f.ring, a, b));
}

TEST(CyclicNtt64, NegacyclicMulMatchesSchoolbook) {
  Fixture64 f(64, 32);
  CyclicNtt64 ntt(f.ring, f.n, f.psi);
  Rng rng(45);
  const auto a = sample_uniform(rng, f.n, f.ring.modulus());
  const auto b = sample_uniform(rng, f.n, f.ring.modulus());
  EXPECT_EQ(ntt.negacyclic_mul(a, b), schoolbook_negacyclic_mul(f.ring, a, b));
}

TEST(CyclicNtt64, SharedTwiddleRomMirrorIdentity) {
  // Paper Section VIII-B: iNTT reuses the forward twiddle table.  Verify
  // omega^-e == -omega^(n/2 - e) for every ROM address.
  Fixture64 f(512, 45);
  CyclicNtt64 ntt(f.ring, f.n, f.psi);
  const u64 winv = f.ring.inv(ntt.omega());
  for (std::size_t e = 0; e < f.n / 2; ++e) {
    EXPECT_EQ(ntt.inv_twiddle(e), f.ring.pow(winv, e)) << "e=" << e;
  }
}

TEST(CyclicNtt64, RejectsNonRootPsi) {
  Fixture64 f(64, 30);
  EXPECT_THROW(CyclicNtt64(f.ring, f.n, 1), std::invalid_argument);
}

TEST(CyclicNtt64, RejectsWrongLength) {
  Fixture64 f(64, 30);
  CyclicNtt64 ntt(f.ring, f.n, f.psi);
  Coeffs<u64> x(32, 0);
  EXPECT_THROW(ntt.forward(x), std::invalid_argument);
}

TEST(MergedNtt64, AgreesWithChipPath) {
  // The merged-psi host NTT and the paper's psi-scale+cyclic-NTT pipeline
  // must produce identical negacyclic products (Algorithm 2 equivalence).
  Fixture64 f(256, 48);
  MergedNtt64 sw(f.ring, f.n, f.psi);
  CyclicNtt64 hw(f.ring, f.n, f.psi);
  Rng rng(48);
  const auto a = sample_uniform(rng, f.n, f.ring.modulus());
  const auto b = sample_uniform(rng, f.n, f.ring.modulus());
  EXPECT_EQ(sw.negacyclic_mul(a, b), hw.negacyclic_mul(a, b));
}

TEST(CyclicNtt128, RoundTripAndSchoolbook) {
  const std::size_t n = 64;
  const u128 q = nt::find_ntt_prime_u128(100, n);
  Barrett128 ring(q);
  const u128 psi = nt::primitive_2nth_root(q, n);
  CyclicNtt128 ntt(ring, n, psi);
  Rng rng(49);
  const auto a = sample_uniform128(rng, n, q);
  const auto b = sample_uniform128(rng, n, q);
  auto y = a;
  ntt.forward(y);
  ntt.inverse(y);
  EXPECT_EQ(y, a);
  EXPECT_EQ(ntt.negacyclic_mul(a, b), schoolbook_negacyclic_mul(ring, a, b));
}

TEST(CyclicNtt128, PaperScaleModulus109Bits) {
  // The Fig. 6 small configuration: one 109-bit tower (n reduced for test
  // speed; the ring width is what matters here).
  const std::size_t n = 128;
  const u128 q = nt::find_ntt_prime_u128(109, n);
  Barrett128 ring(q);
  CyclicNtt128 ntt(ring, n, nt::primitive_2nth_root(q, n));
  Rng rng(50);
  const auto a = sample_uniform128(rng, n, q);
  const auto b = sample_uniform128(rng, n, q);
  EXPECT_EQ(ntt.negacyclic_mul(a, b), schoolbook_negacyclic_mul(ring, a, b));
}

// Parameterized sweep over polynomial degrees (the chip supports any power
// of two up to 2^14; we exercise the algorithmic range).
class NttDegreeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttDegreeSweep, BothEnginesMatchSchoolbook) {
  const std::size_t n = GetParam();
  Fixture64 f(n, 34);
  CyclicNtt64 hw(f.ring, n, f.psi);
  MergedNtt64 sw(f.ring, n, f.psi);
  Rng rng(1000 + n);
  const auto a = sample_uniform(rng, n, f.ring.modulus());
  const auto b = sample_uniform(rng, n, f.ring.modulus());
  const auto expect = schoolbook_negacyclic_mul(f.ring, a, b);
  EXPECT_EQ(hw.negacyclic_mul(a, b), expect);
  EXPECT_EQ(sw.negacyclic_mul(a, b), expect);
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttDegreeSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512));

// Linearity property: NTT(a + b) == NTT(a) + NTT(b).
class NttLinearity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttLinearity, TransformIsLinear) {
  const std::size_t n = GetParam();
  Fixture64 f(n, 40);
  CyclicNtt64 ntt(f.ring, n, f.psi);
  Rng rng(2000 + n);
  const auto a = sample_uniform(rng, n, f.ring.modulus());
  const auto b = sample_uniform(rng, n, f.ring.modulus());
  auto sum = pointwise_add(f.ring, a, b);
  auto fa = a, fb = b;
  ntt.forward(fa);
  ntt.forward(fb);
  ntt.forward(sum);
  EXPECT_EQ(sum, pointwise_add(f.ring, fa, fb));
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttLinearity,
                         ::testing::Values(16, 64, 256, 1024, 4096));

}  // namespace
}  // namespace cofhee::poly
