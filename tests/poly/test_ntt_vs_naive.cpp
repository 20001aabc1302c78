// Property tests cross-checking both NTT engines against a naive O(n^2)
// schoolbook reference that is arithmetically independent of the library:
// it reduces through raw __uint128_t division rather than the Barrett
// reducers the transforms are built on, so a systematic reduction bug
// cannot cancel out of the comparison.  Swept for n in {16, 64, 256}
// across every prime of an RNS basis spanning the tower widths the BFV
// parameter sets use (30..55 bits, q == 1 mod 2n).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/ntt.hpp"
#include "poly/rns.hpp"
#include "poly/sampler.hpp"

namespace cofhee::poly {
namespace {

// Independent modular arithmetic: no Barrett, no Shoup.
u64 naive_mulmod(u64 a, u64 b, u64 q) {
  return static_cast<u64>((static_cast<u128>(a) * b) % q);
}

u64 naive_addmod(u64 a, u64 b, u64 q) {
  const u64 s = a + b;  // a, b < q < 2^63 for every tower here: no overflow
  return s >= q ? s - q : s;
}

u64 naive_submod(u64 a, u64 b, u64 q) { return a >= b ? a - b : a + q - b; }

// Naive negacyclic product in Z_q[x]/(x^n + 1).
Coeffs<u64> naive_negacyclic(const Coeffs<u64>& a, const Coeffs<u64>& b, u64 q) {
  const std::size_t n = a.size();
  Coeffs<u64> c(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const u64 p = naive_mulmod(a[i], b[j], q);
      const std::size_t k = (i + j) % n;
      c[k] = i + j < n ? naive_addmod(c[k], p, q) : naive_submod(c[k], p, q);
    }
  return c;
}

// Naive cyclic product in Z_q[x]/(x^n - 1).
Coeffs<u64> naive_cyclic(const Coeffs<u64>& a, const Coeffs<u64>& b, u64 q) {
  const std::size_t n = a.size();
  Coeffs<u64> c(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      c[(i + j) % n] =
          naive_addmod(c[(i + j) % n], naive_mulmod(a[i], b[j], q), q);
  return c;
}

// One RNS basis per degree, spanning the tower widths BfvParams uses.
RnsBasis test_basis(std::size_t n) {
  std::vector<u64> moduli;
  u64 seed = 0;
  for (unsigned bits : {30u, 40u, 50u, 54u, 55u})
    moduli.push_back(nt::find_ntt_prime_u64(bits, n, seed++));
  return RnsBasis(moduli);
}

class NttVsNaive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttVsNaive, ForwardInverseRoundTripAllPrimes) {
  const std::size_t n = GetParam();
  const RnsBasis basis = test_basis(n);
  Rng rng(100 + n);
  for (std::size_t t = 0; t < basis.size(); ++t) {
    const auto& ring = basis.tower(t);
    const u64 psi = nt::primitive_2nth_root(ring.modulus(), n);
    const CyclicNtt64 hw(ring, n, psi);
    const MergedNtt64 sw(ring, n, psi);
    const auto x = sample_uniform(rng, n, ring.modulus());
    auto y = x;
    hw.forward(y);
    hw.inverse(y);
    EXPECT_EQ(y, x) << "cyclic engine, tower " << t;
    y = x;
    sw.forward(y);
    sw.inverse(y);
    EXPECT_EQ(y, x) << "merged-psi engine, tower " << t;
  }
}

TEST_P(NttVsNaive, NegacyclicMulMatchesNaiveAllPrimes) {
  const std::size_t n = GetParam();
  const RnsBasis basis = test_basis(n);
  Rng rng(200 + n);
  for (std::size_t t = 0; t < basis.size(); ++t) {
    const auto& ring = basis.tower(t);
    const u64 q = ring.modulus();
    const u64 psi = nt::primitive_2nth_root(q, n);
    const CyclicNtt64 hw(ring, n, psi);
    const MergedNtt64 sw(ring, n, psi);
    const auto a = sample_uniform(rng, n, q);
    const auto b = sample_uniform(rng, n, q);
    const auto expect = naive_negacyclic(a, b, q);
    EXPECT_EQ(hw.negacyclic_mul(a, b), expect) << "cyclic engine, tower " << t;
    EXPECT_EQ(sw.negacyclic_mul(a, b), expect) << "merged-psi engine, tower " << t;
  }
}

TEST_P(NttVsNaive, PointwiseConvolutionTheoremAllPrimes) {
  // The negacyclic product decomposes into psi scaling + forward NTT +
  // pointwise product + inverse NTT + psi^-1 scaling (paper Algorithm 2).
  // Run the pipeline by hand and compare each layer against naive math.
  const std::size_t n = GetParam();
  const RnsBasis basis = test_basis(n);
  Rng rng(300 + n);
  for (std::size_t t = 0; t < basis.size(); ++t) {
    const auto& ring = basis.tower(t);
    const u64 q = ring.modulus();
    const u64 psi = nt::primitive_2nth_root(q, n);
    const CyclicNtt64 ntt(ring, n, psi);
    const auto a = sample_uniform(rng, n, q);
    const auto b = sample_uniform(rng, n, q);

    // Cyclic convolution theorem: iNTT(NTT(a) . NTT(b)) == a *cyc b.
    auto fa = a, fb = b;
    ntt.forward(fa);
    ntt.forward(fb);
    auto cyc = pointwise_mul(ring, fa, fb);
    ntt.inverse(cyc);
    EXPECT_EQ(cyc, naive_cyclic(a, b, q)) << "cyclic theorem, tower " << t;

    // Negacyclic via explicit psi wrap of the same pipeline.
    Coeffs<u64> ap(n), bp(n);
    for (std::size_t i = 0; i < n; ++i) {
      ap[i] = naive_mulmod(a[i], ntt.psi_powers()[i], q);
      bp[i] = naive_mulmod(b[i], ntt.psi_powers()[i], q);
    }
    ntt.forward(ap);
    ntt.forward(bp);
    auto neg = pointwise_mul(ring, ap, bp);
    ntt.inverse(neg);
    for (std::size_t i = 0; i < n; ++i)
      neg[i] = naive_mulmod(neg[i], ntt.psi_inv_powers()[i], q);
    EXPECT_EQ(neg, naive_negacyclic(a, b, q)) << "negacyclic wrap, tower " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttVsNaive, ::testing::Values(16, 64, 256));

}  // namespace
}  // namespace cofhee::poly
