#include "bfv/bfv.hpp"

#include <gtest/gtest.h>

#include "bfv/encoder.hpp"

namespace cofhee::bfv {
namespace {

struct BfvFixture {
  Bfv scheme;
  SecretKey sk;
  PublicKey pk;

  explicit BfvFixture(std::size_t n = 64, std::uint64_t seed = 1)
      : scheme(BfvParams::test_tiny(n), seed), sk(scheme.keygen_secret()),
        pk(scheme.keygen_public(sk)) {}

  Plaintext random_plain(std::uint64_t seed) {
    poly::Rng rng(seed);
    Plaintext m;
    m.coeffs.resize(scheme.context().n());
    for (auto& c : m.coeffs) c = rng.uniform_below(scheme.context().t());
    return m;
  }
};

TEST(Bfv, EncryptDecryptRoundTrip) {
  BfvFixture f;
  const auto m = f.random_plain(10);
  const auto ct = f.scheme.encrypt(f.pk, m);
  EXPECT_EQ(ct.size(), 2u);
  EXPECT_EQ(f.scheme.decrypt(f.sk, ct).coeffs, m.coeffs);
}

TEST(Bfv, FreshCiphertextHasNoiseBudget) {
  BfvFixture f;
  const auto ct = f.scheme.encrypt(f.pk, f.random_plain(11));
  EXPECT_GT(f.scheme.noise_budget_bits(f.sk, ct), 20.0);
}

TEST(Bfv, HomomorphicAddition) {
  BfvFixture f;
  const auto ma = f.random_plain(12);
  const auto mb = f.random_plain(13);
  const auto ct = f.scheme.add(f.scheme.encrypt(f.pk, ma), f.scheme.encrypt(f.pk, mb));
  const auto dec = f.scheme.decrypt(f.sk, ct);
  const u64 t = f.scheme.context().t();
  for (std::size_t j = 0; j < dec.coeffs.size(); ++j)
    EXPECT_EQ(dec.coeffs[j], (ma.coeffs[j] + mb.coeffs[j]) % t);
}

TEST(Bfv, AddPlain) {
  BfvFixture f;
  const auto ma = f.random_plain(14);
  const auto mb = f.random_plain(15);
  const auto ct = f.scheme.add_plain(f.scheme.encrypt(f.pk, ma), mb);
  const auto dec = f.scheme.decrypt(f.sk, ct);
  const u64 t = f.scheme.context().t();
  for (std::size_t j = 0; j < dec.coeffs.size(); ++j)
    EXPECT_EQ(dec.coeffs[j], (ma.coeffs[j] + mb.coeffs[j]) % t);
}

TEST(Bfv, MultiplyWithoutRelinearization) {
  // The Fig. 6 operation: EvalMult yielding a 3-element ciphertext,
  // decryptable with (1, s, s^2).
  BfvFixture f;
  Plaintext ma, mb;
  ma.coeffs.assign(f.scheme.context().n(), 0);
  mb.coeffs.assign(f.scheme.context().n(), 0);
  ma.coeffs[0] = 7;
  ma.coeffs[1] = 3;
  mb.coeffs[0] = 5;
  mb.coeffs[2] = 2;
  const auto ct = f.scheme.multiply(f.scheme.encrypt(f.pk, ma), f.scheme.encrypt(f.pk, mb));
  EXPECT_EQ(ct.size(), 3u);
  const auto dec = f.scheme.decrypt(f.sk, ct);
  // (7 + 3x)(5 + 2x^2) = 35 + 15x + 14x^2 + 6x^3.
  EXPECT_EQ(dec.coeffs[0], 35u);
  EXPECT_EQ(dec.coeffs[1], 15u);
  EXPECT_EQ(dec.coeffs[2], 14u);
  EXPECT_EQ(dec.coeffs[3], 6u);
}

TEST(Bfv, MultiplyMatchesPlaintextConvolution) {
  BfvFixture f(32, 2);
  const auto ma = f.random_plain(16);
  const auto mb = f.random_plain(17);
  const auto ct = f.scheme.multiply(f.scheme.encrypt(f.pk, ma), f.scheme.encrypt(f.pk, mb));
  const auto dec = f.scheme.decrypt(f.sk, ct);
  // Expected: negacyclic convolution over Z_t.
  nt::Barrett64 tr(f.scheme.context().t());
  const auto expect = poly::schoolbook_negacyclic_mul(tr, ma.coeffs, mb.coeffs);
  EXPECT_EQ(dec.coeffs, expect);
}

TEST(Bfv, RelinearizationPreservesPlaintext) {
  BfvFixture f(32, 3);
  const auto rk = f.scheme.keygen_relin(f.sk, 16);
  const auto ma = f.random_plain(18);
  const auto mb = f.random_plain(19);
  const auto ct3 = f.scheme.multiply(f.scheme.encrypt(f.pk, ma), f.scheme.encrypt(f.pk, mb));
  const auto ct2 = f.scheme.relinearize(ct3, rk);
  EXPECT_EQ(ct2.size(), 2u);
  EXPECT_EQ(f.scheme.decrypt(f.sk, ct2).coeffs, f.scheme.decrypt(f.sk, ct3).coeffs);
}

TEST(Bfv, MulPlain) {
  BfvFixture f;
  const auto ma = f.random_plain(20);
  Plaintext mb;
  mb.coeffs.assign(f.scheme.context().n(), 0);
  mb.coeffs[0] = 3;  // multiply by the scalar 3
  const auto ct = f.scheme.mul_plain(f.scheme.encrypt(f.pk, ma), mb);
  const auto dec = f.scheme.decrypt(f.sk, ct);
  const u64 t = f.scheme.context().t();
  for (std::size_t j = 0; j < dec.coeffs.size(); ++j)
    EXPECT_EQ(dec.coeffs[j], (ma.coeffs[j] * 3) % t);
}

TEST(Bfv, NoiseGrowsWithMultiplication) {
  BfvFixture f(32, 4);
  const auto ct = f.scheme.encrypt(f.pk, f.random_plain(21));
  const double fresh = f.scheme.noise_budget_bits(f.sk, ct);
  const auto ct2 = f.scheme.multiply(ct, ct);
  const double after = f.scheme.noise_budget_bits(f.sk, ct2);
  EXPECT_LT(after, fresh);
  EXPECT_GT(after, 0.0) << "parameters too small for one multiplication";
}

TEST(Bfv, MultiplicativeDepthTwo) {
  // ((a*b) relinearized) * c decrypts correctly at test parameters.
  BfvFixture f(32, 5);
  const auto rk = f.scheme.keygen_relin(f.sk, 16);
  IntegerEncoder enc(f.scheme.context());
  const auto ca = f.scheme.encrypt(f.pk, enc.encode(11));
  const auto cb = f.scheme.encrypt(f.pk, enc.encode(12));
  const auto cc = f.scheme.encrypt(f.pk, enc.encode(13));
  const auto prod = f.scheme.relinearize(f.scheme.multiply(ca, cb), rk);
  const auto prod2 = f.scheme.multiply(prod, cc);
  EXPECT_EQ(enc.decode(f.scheme.decrypt(f.sk, prod2)), 11 * 12 * 13);
}

TEST(Bfv, PaperParameterPresetsAreSane) {
  const auto small = BfvParams::paper_small();
  EXPECT_EQ(small.n, 4096u);
  EXPECT_NEAR(small.log_q(), 109, 1);
  const auto large = BfvParams::paper_large();
  EXPECT_EQ(large.n, 8192u);
  EXPECT_NEAR(large.log_q(), 218, 1);
}

TEST(Bfv, RejectsBadInputs) {
  BfvFixture f;
  Plaintext bad;
  bad.coeffs.assign(8, 0);  // wrong length
  EXPECT_THROW((void)f.scheme.encrypt(f.pk, bad), std::invalid_argument);
  const auto ct = f.scheme.encrypt(f.pk, f.random_plain(22));
  EXPECT_THROW((void)f.scheme.relinearize(ct, RelinKeys{}), std::invalid_argument);
}

TEST(Bfv, PlaintextOpsRejectMalformedPlaintexts) {
  // add_plain/mul_plain read m.coeffs[j] for every j < n: a short plaintext
  // was read out of bounds, and a coefficient >= t was embedded as is.
  BfvFixture f;
  const auto ct = f.scheme.encrypt(f.pk, f.random_plain(23));
  Plaintext short_plain;
  short_plain.coeffs.assign(1, 3);
  EXPECT_THROW((void)f.scheme.add_plain(ct, short_plain), std::invalid_argument);
  EXPECT_THROW((void)f.scheme.mul_plain(ct, short_plain), std::invalid_argument);
  Plaintext too_big = f.random_plain(24);
  too_big.coeffs.back() = f.scheme.context().t();
  EXPECT_THROW((void)f.scheme.add_plain(ct, too_big), std::invalid_argument);
  EXPECT_THROW((void)f.scheme.mul_plain(ct, too_big), std::invalid_argument);
  EXPECT_THROW((void)f.scheme.encrypt(f.pk, too_big), std::invalid_argument);
}

TEST(Bfv, PooledEncryptRejectsCoefficientAtT) {
  // The coefficient check runs once, before any pool task starts.
  Bfv scheme(BfvParams::test_tiny(), 1, backend::ExecPolicy::pooled(2, 16));
  const auto sk = scheme.keygen_secret();
  const auto pk = scheme.keygen_public(sk);
  Plaintext m;
  m.coeffs.assign(scheme.context().n(), 0);
  m.coeffs[5] = scheme.context().t();
  EXPECT_THROW((void)scheme.encrypt(pk, m), std::invalid_argument);
  m.coeffs[5] = scheme.context().t() - 1;
  EXPECT_EQ(scheme.decrypt(sk, scheme.encrypt(pk, m)).coeffs, m.coeffs);
}

}  // namespace
}  // namespace cofhee::bfv
