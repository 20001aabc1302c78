// MergedNtt -- the transform CoFHEE's NTT command executes (one command =
// full negacyclic transform, twiddle ROM of bit-reversed psi powers shared
// between NTT and iNTT per Section VIII-B).
#include "poly/merged_ntt.hpp"

#include <gtest/gtest.h>

#include "bfv/bfv.hpp"
#include "nt/primes.hpp"
#include "nt/simd.hpp"
#include "poly/ntt.hpp"
#include "poly/sampler.hpp"

namespace cofhee::nt::simd {
// Lane parameters print by name in test listings.
inline void PrintTo(Isa isa, std::ostream* os) { *os << isa_name(isa); }
}  // namespace cofhee::nt::simd

namespace cofhee::poly {
namespace {

template <class Red, class T>
struct Fix {
  std::size_t n;
  Red ring;
  T psi;
  MergedNtt<Red, T> eng;

  Fix(std::size_t n_, T q)
      : n(n_), ring(q), psi(nt::primitive_2nth_root(q, n_)), eng(ring, n_, psi) {}
};

// The merged forward transform written as Algorithm 2's first half: psi
// pre-scaling, then the cyclic omega NTT (bit-reversed out).
Coeffs<u64> psi_scaled_forward(const CyclicNtt64& ntt, Coeffs<u64> x) {
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = ntt.ring().mul(x[i], ntt.psi_powers()[i]);
  ntt.forward(x);
  return x;
}

TEST(MergedNtt, RoundTrip64) {
  const u64 q = nt::find_ntt_prime_u64(50, 512);
  Fix<nt::Barrett64, u64> f(512, q);
  Rng rng(1);
  const auto x = sample_uniform(rng, 512, q);
  auto y = x;
  f.eng.forward(y);
  f.eng.inverse(y);
  EXPECT_EQ(y, x);
}

TEST(MergedNtt, MulMatchesSchoolbook128) {
  // At 127 bits 3q > 2^128: the Barrett128 remainder carries past the low limb.
  for (const unsigned bits : {109u, 127u}) {
    const u128 q = nt::find_ntt_prime_u128(bits, 128);
    Fix<nt::Barrett128, u128> f(128, q);
    Rng rng(2);
    const auto a = sample_uniform128(rng, 128, q);
    const auto b = sample_uniform128(rng, 128, q);
    EXPECT_EQ(f.eng.negacyclic_mul(a, b), schoolbook_negacyclic_mul(f.ring, a, b)) << bits;
  }
}

TEST(MergedNtt, AgreesWithShoupEngine) {
  // Same transform as the production 64-bit (Shoup, lazy) engine, different
  // arithmetic; both equal the psi-scaled cyclic transform of Algorithm 2.
  const u64 q = nt::find_ntt_prime_u64(55, 256);
  Fix<nt::Barrett64, u64> f(256, q);
  const MergedNtt64 shoup(f.ring, 256, f.psi);
  const CyclicNtt64 cyclic(f.ring, 256, f.psi);
  Rng rng(3);
  auto a = sample_uniform(rng, 256, q);
  auto b = a;
  const auto want = psi_scaled_forward(cyclic, a);
  f.eng.forward(a);
  shoup.forward(b);
  EXPECT_EQ(a, want);
  EXPECT_EQ(b, want);
}

TEST(MergedNtt, AgreesWithExplicitPsiScalingPath) {
  // Algorithm 2 equivalence: merged twiddles == psi-scale + cyclic omega
  // NTT, coefficient for coefficient after the inverse.
  const u128 q = nt::find_ntt_prime_u128(80, 64);
  Fix<nt::Barrett128, u128> f(64, q);
  CyclicNtt128 scaled(f.ring, 64, f.psi);
  Rng rng(4);
  const auto a = sample_uniform128(rng, 64, q);
  const auto b = sample_uniform128(rng, 64, q);
  EXPECT_EQ(f.eng.negacyclic_mul(a, b), scaled.negacyclic_mul(a, b));
}

TEST(MergedNtt, TwiddleRomIsBitReversedPsiPowers) {
  const u64 q = nt::find_ntt_prime_u64(40, 32);
  Fix<nt::Barrett64, u64> f(32, q);
  const auto& rom = f.eng.twiddle_rom();
  ASSERT_EQ(rom.size(), 32u);
  for (std::size_t i = 0; i < rom.size(); ++i) {
    EXPECT_EQ(rom[i], f.ring.pow(f.psi, nt::bit_reverse(i, 5))) << i;
  }
}

TEST(MergedNtt, InverseTwiddlesDerivableFromRomByMirror) {
  // The property the chip's DMA-assisted mirror pass relies on:
  // psi^-e = -psi^(n-e), so the iNTT needs no second table.  Both the
  // mirror read of the ROM and the engine's table must equal psi^-rev(i)
  // computed from psi^-1 directly.
  const u64 q = nt::find_ntt_prime_u64(40, 64);
  Fix<nt::Barrett64, u64> f(64, q);
  const auto& rom = f.eng.twiddle_rom();
  const auto& inv = f.eng.inv_twiddles();
  const u64 psi_inv = f.ring.inv(f.psi);
  for (std::size_t i = 1; i < 64; ++i) {
    const std::size_t e = nt::bit_reverse(i, 6);
    const u64 direct = f.ring.pow(psi_inv, e);
    EXPECT_EQ(f.ring.neg(rom[nt::bit_reverse(64 - e, 6)]), direct) << i;
    EXPECT_EQ(inv[i], direct) << i;
  }
  EXPECT_EQ(inv[0], 1u);
}

template <class Eng, class T>
void expect_same_transforms(const Eng& from_psi, const Eng& from_rom,
                            const Coeffs<T>& x) {
  auto a = x, b = x;
  from_psi.forward(a);
  from_rom.forward(b);
  EXPECT_EQ(a, b);
  from_psi.inverse(a);
  from_rom.inverse(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, x);
}

TEST(MergedNtt, RomConstructorMatchesPsiConstructor) {
  // The chip builds its engines from the TW bank's ROM words and
  // INV_POLYDEG; the host builds them from psi.  Same tables, same outputs.
  const std::size_t n = 64;
  {
    const u64 q = nt::find_ntt_prime_u64(50, n);
    Fix<nt::Barrett64, u64> f(n, q);
    const MergedNtt<nt::Barrett64, u64> rom(f.ring, twiddle_rom(f.ring, n, f.psi),
                                            f.ring.inv(u64{n}));
    EXPECT_EQ(rom.twiddle_rom(), f.eng.twiddle_rom());
    EXPECT_EQ(rom.inv_twiddles(), f.eng.inv_twiddles());
    EXPECT_EQ(rom.n_inv(), f.eng.n_inv());
    Rng rng(21);
    expect_same_transforms(f.eng, rom, sample_uniform(rng, n, q));
  }
  {
    const u128 q = nt::find_ntt_prime_u128(109, n);
    Fix<nt::Barrett128, u128> f(n, q);
    const MergedNtt128 rom(f.ring, f.eng.twiddle_rom(), f.ring.inv(u128{n}));
    EXPECT_EQ(rom.twiddle_rom(), f.eng.twiddle_rom());
    EXPECT_EQ(rom.inv_twiddles(), f.eng.inv_twiddles());
    EXPECT_EQ(rom.n_inv(), f.eng.n_inv());
    Rng rng(22);
    expect_same_transforms(f.eng, rom, sample_uniform128(rng, n, q));
  }
  {
    // MergedNtt64 from a ROM narrowed out of the 128-bit engine's words, as
    // the chip model narrows its TW bank.
    const u64 q = nt::find_ntt_prime_u64(55, n);
    const nt::Barrett64 ring(q);
    const u64 psi = nt::primitive_2nth_root(q, n);
    const MergedNtt128 wide(nt::Barrett128(q), n, u128{psi});
    std::vector<u64> words(wide.twiddle_rom().begin(), wide.twiddle_rom().end());
    const MergedNtt64 from_psi(ring, n, psi);
    const MergedNtt64 rom(ring, words, static_cast<u64>(wide.n_inv()));
    EXPECT_EQ(rom.twiddle_rom(), from_psi.twiddle_rom());
    Rng rng(23);
    expect_same_transforms(from_psi, rom, sample_uniform(rng, n, q));
  }
}

TEST(MergedNtt, NegacyclicWrapProperty) {
  // x * x^(n-1) has an x^n term that must wrap to -1 in coefficient 0.
  const u64 q = nt::find_ntt_prime_u64(40, 16);
  Fix<nt::Barrett64, u64> f(16, q);
  Coeffs<u64> x(16, 0), xn1(16, 0);
  x[1] = 1;
  xn1[15] = 1;
  const auto prod = f.eng.negacyclic_mul(x, xn1);
  EXPECT_EQ(prod[0], q - 1);  // -1 mod q
  for (std::size_t i = 1; i < 16; ++i) EXPECT_EQ(prod[i], 0u);
}

TEST(MergedNtt, RejectsBadConstruction) {
  const u64 q = nt::find_ntt_prime_u64(40, 64);
  nt::Barrett64 ring(q);
  EXPECT_THROW((MergedNtt<nt::Barrett64, u64>(ring, 63, 2)), std::invalid_argument);
  EXPECT_THROW((MergedNtt<nt::Barrett64, u64>(ring, 64, 1)), std::invalid_argument);
  EXPECT_THROW((MergedNtt<nt::Barrett64, u64>(ring, std::vector<u64>(6, 1), 1)),
               std::invalid_argument);
  EXPECT_THROW(MergedNtt64(ring, std::vector<u64>{}, 1), std::invalid_argument);
}

class MergedDegreeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergedDegreeSweep, MatchesSchoolbook) {
  const std::size_t n = GetParam();
  const u64 q = nt::find_ntt_prime_u64(45, n);
  Fix<nt::Barrett64, u64> f(n, q);
  Rng rng(100 + n);
  const auto a = sample_uniform(rng, n, q);
  const auto b = sample_uniform(rng, n, q);
  EXPECT_EQ(f.eng.negacyclic_mul(a, b), schoolbook_negacyclic_mul(f.ring, a, b));
}

INSTANTIATE_TEST_SUITE_P(Degrees, MergedDegreeSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

// ---------------------------------------------------------------------------
// MergedNtt64 -- the fused/SIMD host engine behind Bfv, CpuTensorKernel,
// BatchEncoder and the chip's u64 datapath, pinned across every shipped
// parameter set against the paper's psi-scaled CyclicNtt64 (poly/ntt.hpp)
// and the schoolbook product.
// ---------------------------------------------------------------------------

// Negacyclic schoolbook product over Z_t (u64 modulus, u128 intermediate):
// the plaintext-side ground truth for the end-to-end chain test.
Coeffs<u64> schoolbook_mod_t(const Coeffs<u64>& a, const Coeffs<u64>& b, u64 t) {
  const std::size_t n = a.size();
  Coeffs<u64> y(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const u64 prod = static_cast<u64>(static_cast<u128>(a[i]) * b[j] % t);
      const std::size_t k = i + j;
      if (k < n) {
        y[k] = (y[k] + prod) % t;
      } else {
        y[k - n] = (y[k - n] + t - prod) % t;  // x^n = -1
      }
    }
  }
  return y;
}

std::vector<bfv::BfvParams> all_param_sets() {
  return {bfv::BfvParams::test_tiny(64), bfv::BfvParams::paper_small(),
          bfv::BfvParams::paper_large()};
}

TEST(MergedNtt64, RoundTripAndScalarReferenceAcrossParamSets) {
  // Every tower of every shipped parameter set (Q and the aux extension):
  // forward/inverse round-trips, and the forward image matches the
  // psi-scaled cyclic transform bit for bit (so does the inverse,
  // transitively).
  for (const auto& params : all_param_sets()) {
    std::vector<u64> moduli = params.q_moduli;
    moduli.insert(moduli.end(), params.aux_moduli.begin(),
                  params.aux_moduli.end());
    for (u64 q : moduli) {
      const nt::Barrett64 ring(q);
      const u64 psi = nt::primitive_2nth_root(q, params.n);
      const MergedNtt64 fused(ring, params.n, psi);
      const CyclicNtt64 reference(ring, params.n, psi);
      Rng rng(q ^ params.n);
      const auto x = sample_uniform(rng, params.n, q);
      auto fwd_fused = x;
      fused.forward(fwd_fused);
      ASSERT_EQ(fwd_fused, psi_scaled_forward(reference, x))
          << "n=" << params.n << " q=" << q;
      fused.inverse(fwd_fused);
      ASSERT_EQ(fwd_fused, x) << "n=" << params.n << " q=" << q;
    }
  }
}

TEST(MergedNtt64, MulMatchesSchoolbookAcrossModulusSizes) {
  for (unsigned bits : {30u, 45u, 55u, 61u}) {
    const std::size_t n = 128;
    const u64 q = nt::find_ntt_prime_u64(bits, n);
    const nt::Barrett64 ring(q);
    const MergedNtt64 eng(ring, n, nt::primitive_2nth_root(q, n));
    Rng rng(bits);
    const auto a = sample_uniform(rng, n, q);
    const auto b = sample_uniform(rng, n, q);
    EXPECT_EQ(eng.negacyclic_mul(a, b), schoolbook_negacyclic_mul(ring, a, b))
        << "bits=" << bits;
  }
}

TEST(MergedNtt64, TensorMatchesUnfusedReference) {
  // The fused tensor (4 forward + 4 pointwise + 3 inverse in one call) must
  // equal the tensor assembled from the psi-scaled cyclic engine's
  // negacyclic products.
  const std::size_t n = 256;
  const u64 q = nt::find_ntt_prime_u64(50, n);
  const nt::Barrett64 ring(q);
  const u64 psi = nt::primitive_2nth_root(q, n);
  const MergedNtt64 fused(ring, n, psi);
  const CyclicNtt64 reference(ring, n, psi);
  Rng rng(7);
  const auto a0 = sample_uniform(rng, n, q);
  const auto a1 = sample_uniform(rng, n, q);
  const auto b0 = sample_uniform(rng, n, q);
  const auto b1 = sample_uniform(rng, n, q);

  Coeffs<u64> y0, y1, y2;
  fused.tensor(a0, a1, b0, b1, y0, y1, y2);

  EXPECT_EQ(y0, reference.negacyclic_mul(a0, b0));
  EXPECT_EQ(y1, pointwise_add(ring, reference.negacyclic_mul(a0, b1),
                              reference.negacyclic_mul(a1, b0)));
  EXPECT_EQ(y2, reference.negacyclic_mul(a1, b1));
}

// ---------------------------------------------------------------------------
// MergedNtt64 on every ISA lane, pinned with force_isa: n = 1 ... 2^14 over
// a small NTT prime and the largest NTT prime below 2^62 for that n.  A lane
// this binary or CPU lacks skips its own instances only.
// ---------------------------------------------------------------------------

class MergedNtt64Lane : public ::testing::TestWithParam<nt::simd::Isa> {
 protected:
  void SetUp() override {
    if (!nt::simd::available(GetParam()))
      GTEST_SKIP() << nt::simd::isa_name(GetParam()) << " lane unavailable";
  }
  void TearDown() override { nt::simd::clear_forced_isa(); }
};

// n = 1 has no psi (twiddle_rom needs n >= 2): its ROM is the single word 1.
MergedNtt64 engine_for(u64 q, std::size_t n) {
  const nt::Barrett64 ring(q);
  if (n == 1) return MergedNtt64(ring, std::vector<u64>{1}, 1);
  return MergedNtt64(ring, n, nt::primitive_2nth_root(q, n));
}

TEST_P(MergedNtt64Lane, MatchesScalarLaneRoundTripsAndMultiplies) {
  for (std::size_t n = 1; n <= (std::size_t{1} << 14); n <<= 1) {
    for (const u64 q : {u64{65537}, nt::find_ntt_prime_u64(62, n)}) {
      const MergedNtt64 eng = engine_for(q, n);
      Rng rng(q ^ n);
      // Random, all-0, all-(q-1) and alternating 0/(q-1) inputs.
      std::vector<Coeffs<u64>> inputs{sample_uniform(rng, n, q), Coeffs<u64>(n, 0),
                                      Coeffs<u64>(n, q - 1), Coeffs<u64>(n, 0)};
      for (std::size_t i = 1; i < n; i += 2) inputs[3][i] = q - 1;
      for (const auto& x : inputs) {
        ASSERT_TRUE(nt::simd::force_isa(nt::simd::Isa::kScalar));
        auto want = x;
        eng.forward(want);
        ASSERT_TRUE(nt::simd::force_isa(GetParam()));
        auto got = x;
        eng.forward(got);
        ASSERT_EQ(got, want) << "n=" << n << " q=" << q;
        eng.inverse(got);
        ASSERT_EQ(got, x) << "n=" << n << " q=" << q;
      }
      if (n > 1024) continue;  // the schoolbook product is O(n^2)
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto& a = inputs[i];
        const auto& b = inputs[(i + 1) % inputs.size()];
        ASSERT_EQ(eng.negacyclic_mul(a, b), schoolbook_negacyclic_mul(eng.ring(), a, b))
            << "n=" << n << " q=" << q << " pattern=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, MergedNtt64Lane,
                         ::testing::Values(nt::simd::Isa::kScalar, nt::simd::Isa::kAvx2,
                                           nt::simd::Isa::kAvx512, nt::simd::Isa::kNeon),
                         [](const ::testing::TestParamInfo<nt::simd::Isa>& info) {
                           return std::string(nt::simd::isa_name(info.param));
                         });

class MergedChainSweep : public ::testing::TestWithParam<int> {};

TEST_P(MergedChainSweep, MultRelinDecryptChainFusedVsUnfused) {
  // Full EvalMult chain differential: the production scheme (fused + SIMD
  // engines everywhere) against a from-parts software reference built on the
  // psi-scaled CyclicNtt64 -- byte-identical at the tensor, the
  // relinearized ciphertext, and the decrypted plaintext (which must be the
  // schoolbook negacyclic product mod t).
  const auto params = all_param_sets()[static_cast<std::size_t>(GetParam())];
  bfv::Bfv scheme(params, /*seed=*/42);
  const auto& ctx = scheme.context();
  const auto sk = scheme.keygen_secret();
  const auto pk = scheme.keygen_public(sk);
  const auto rk = scheme.keygen_relin(sk);

  Rng rng(9);
  bfv::Plaintext m1{sample_uniform(rng, ctx.n(), ctx.t())};
  bfv::Plaintext m2{sample_uniform(rng, ctx.n(), ctx.t())};
  const auto ct1 = scheme.encrypt(pk, m1);
  const auto ct2 = scheme.encrypt(pk, m2);

  // Production path.
  const auto tensor = scheme.multiply(ct1, ct2);
  const auto relin = scheme.relinearize(tensor, rk);

  // Unfused reference: extend, per-tower cyclic-engine tensor, scale-round.
  const auto ea0 = scheme.extend_centered_public(ct1.c[0]);
  const auto ea1 = scheme.extend_centered_public(ct1.c[1]);
  const auto eb0 = scheme.extend_centered_public(ct2.c[0]);
  const auto eb1 = scheme.extend_centered_public(ct2.c[1]);
  poly::RnsPoly y0, y1, y2;
  const std::size_t ext = ctx.ext_basis().size();
  y0.towers.resize(ext);
  y1.towers.resize(ext);
  y2.towers.resize(ext);
  for (std::size_t tw = 0; tw < ext; ++tw) {
    const auto& ring = ctx.ext_basis().tower(tw);
    const CyclicNtt64 eng(ring, ctx.n(),
                          nt::primitive_2nth_root(ring.modulus(), ctx.n()));
    const auto &a0 = ea0.towers[tw], &a1 = ea1.towers[tw];
    const auto &b0 = eb0.towers[tw], &b1 = eb1.towers[tw];
    y0.towers[tw] = eng.negacyclic_mul(a0, b0);
    y1.towers[tw] = pointwise_add(ring, eng.negacyclic_mul(a0, b1),
                                  eng.negacyclic_mul(a1, b0));
    y2.towers[tw] = eng.negacyclic_mul(a1, b1);
  }
  ASSERT_EQ(tensor.c[0].towers, scheme.scale_round_public(y0).towers);
  ASSERT_EQ(tensor.c[1].towers, scheme.scale_round_public(y1).towers);
  ASSERT_EQ(tensor.c[2].towers, scheme.scale_round_public(y2).towers);

  // Unfused relinearization reference over the Q basis.
  const auto digits = scheme.relin_digits_public(tensor.c[2], rk);
  poly::RnsPoly rc0 = tensor.c[0], rc1 = tensor.c[1];
  for (std::size_t tw = 0; tw < ctx.q_basis().size(); ++tw) {
    const auto& ring = ctx.q_basis().tower(tw);
    const CyclicNtt64 eng(ring, ctx.n(),
                          nt::primitive_2nth_root(ring.modulus(), ctx.n()));
    for (std::size_t d = 0; d < digits.size(); ++d) {
      const auto pb =
          eng.negacyclic_mul(digits[d].towers[tw], rk.keys[d].first.towers[tw]);
      const auto pa =
          eng.negacyclic_mul(digits[d].towers[tw], rk.keys[d].second.towers[tw]);
      rc0.towers[tw] = pointwise_add(ring, rc0.towers[tw], pb);
      rc1.towers[tw] = pointwise_add(ring, rc1.towers[tw], pa);
    }
  }
  ASSERT_EQ(relin.c[0].towers, rc0.towers);
  ASSERT_EQ(relin.c[1].towers, rc1.towers);

  // And the chain decrypts to the schoolbook plaintext product.
  const auto dec = scheme.decrypt(sk, relin);
  EXPECT_EQ(dec.coeffs, schoolbook_mod_t(m1.coeffs, m2.coeffs, ctx.t()));
}

// Index 2 (paper_large, n = 2^13) is covered by the slow-labeled BFV paper
// suite; the chain differential sticks to the fast sets.
INSTANTIATE_TEST_SUITE_P(ParamSets, MergedChainSweep, ::testing::Values(0, 1));

}  // namespace
}  // namespace cofhee::poly
