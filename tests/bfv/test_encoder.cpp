#include "bfv/encoder.hpp"

#include <gtest/gtest.h>

#include "poly/ntt.hpp"
#include "poly/sampler.hpp"

namespace cofhee::bfv {
namespace {

struct EncFixture {
  Bfv scheme{BfvParams::test_tiny(64), 7};
  SecretKey sk = scheme.keygen_secret();
  PublicKey pk = scheme.keygen_public(sk);
};

TEST(IntegerEncoder, RoundTripSigned) {
  EncFixture f;
  IntegerEncoder enc(f.scheme.context());
  for (std::int64_t v : {0L, 1L, -1L, 1000L, -1000L, 32768L, -32768L}) {
    EXPECT_EQ(enc.decode(enc.encode(v)), v) << v;
  }
}

TEST(IntegerEncoder, EncryptedArithmetic) {
  EncFixture f;
  IntegerEncoder enc(f.scheme.context());
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(-25));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(17));
  EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, f.scheme.add(ca, cb))), -8);
  EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, f.scheme.multiply(ca, cb))), -425);
}

TEST(BatchEncoder, SlotRoundTrip) {
  EncFixture f;
  BatchEncoder enc(f.scheme.context());
  EXPECT_EQ(enc.slot_count(), 64u);
  std::vector<u64> v(64);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i * 31 + 5) % 65537;
  const auto p = enc.encode(v);
  EXPECT_EQ(enc.decode(p), v);
}

TEST(BatchEncoder, SlotwiseHomomorphicOps) {
  // SIMD semantics: encrypted add/mul act independently per slot -- the
  // property CryptoNets-style batching (Section VI-C) exploits.
  EncFixture f;
  BatchEncoder enc(f.scheme.context());
  std::vector<u64> va(64), vb(64);
  for (std::size_t i = 0; i < 64; ++i) {
    va[i] = i + 1;
    vb[i] = 2 * i + 3;
  }
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(va));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(vb));
  const auto sum = enc.decode(f.scheme.decrypt(f.sk, f.scheme.add(ca, cb)));
  const auto prod = enc.decode(f.scheme.decrypt(f.sk, f.scheme.multiply(ca, cb)));
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(sum[i], va[i] + vb[i]);
    EXPECT_EQ(prod[i], va[i] * vb[i] % 65537);
  }
}

TEST(BatchEncoder, PartialVectorZeroPads) {
  EncFixture f;
  BatchEncoder enc(f.scheme.context());
  const auto p = enc.encode({5, 6});
  const auto v = enc.decode(p);
  EXPECT_EQ(v[0], 5u);
  EXPECT_EQ(v[1], 6u);
  for (std::size_t i = 2; i < v.size(); ++i) EXPECT_EQ(v[i], 0u);
}

TEST(BatchEncoder, RejectsOversizedInputs) {
  EncFixture f;
  BatchEncoder enc(f.scheme.context());
  EXPECT_THROW((void)enc.encode(std::vector<u64>(65, 0)), std::invalid_argument);
  EXPECT_THROW((void)enc.encode({65537}), std::invalid_argument);
  Plaintext p = enc.encode({5, 6});
  p.coeffs[3] = 65537;  // out of Z_t: must not decode to garbage
  EXPECT_THROW((void)enc.decode(p), std::invalid_argument);
  p.coeffs.pop_back();
  EXPECT_THROW((void)enc.decode(p), std::invalid_argument);
  // 65539 is prime but not 1 mod 2n: Z_t has no 2n-th root to batch with.
  const BfvContext odd_t(BfvParams::create(64, {40, 41}, 65539));
  EXPECT_THROW(BatchEncoder{odd_t}, std::invalid_argument);
}

TEST(BatchEncoder, MatchesCyclicReferenceOnEveryPreset) {
  // decode is the psi-scaled cyclic transform over Z_t (paper Algorithm 2),
  // encode inverts it, and the negacyclic product of two encodings decodes
  // to the slot-wise product -- on random, all-0, all-(t-1) and alternating
  // 0/(t-1) inputs.
  for (const auto& params :
       {BfvParams::test_tiny(64), BfvParams::paper_small(), BfvParams::paper_large()}) {
    const BfvContext ctx(params);
    const BatchEncoder enc(ctx);
    const std::size_t n = ctx.n();
    const u64 t = ctx.t();
    const nt::Barrett64 ring(t);
    const poly::CyclicNtt64 cyclic(ring, n, nt::primitive_2nth_root(t, n));
    poly::Rng rng(n);
    std::vector<poly::Coeffs<u64>> inputs{poly::sample_uniform(rng, n, t),
                                          poly::Coeffs<u64>(n, 0),
                                          poly::Coeffs<u64>(n, t - 1),
                                          poly::Coeffs<u64>(n, 0)};
    for (std::size_t i = 1; i < n; i += 2) inputs[3][i] = t - 1;
    const auto other = poly::sample_uniform(rng, n, t);
    const Plaintext other_pt = enc.encode(other);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const Plaintext p{inputs[k]};
      auto want = inputs[k];
      for (std::size_t i = 0; i < n; ++i) want[i] = ring.mul(want[i], cyclic.psi_powers()[i]);
      cyclic.forward(want);
      const auto slots = enc.decode(p);
      ASSERT_EQ(slots, want) << "n=" << n << " pattern=" << k;
      ASSERT_EQ(enc.encode(slots).coeffs, p.coeffs) << "n=" << n << " pattern=" << k;

      // The encoding goes first: schoolbook skips its zero coefficients.
      const Plaintext prod{poly::schoolbook_negacyclic_mul(
          ring, enc.encode(inputs[k]).coeffs, other_pt.coeffs)};
      const auto got = enc.decode(prod);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], ring.mul(inputs[k][i], other[i]))
            << "n=" << n << " pattern=" << k << " slot=" << i;
    }
  }
}

}  // namespace
}  // namespace cofhee::bfv
