// Differential battery for BFV's word-sized host RNS phases.
//
// extend_centered, scale_round_to_q, decrypt and relin_digits run on each
// coefficient's mixed-radix CRT digits in u64 arithmetic.  The reference
// here is a test-local copy of the big-integer formulas they replaced: the
// q-hat CRT lift with its conditional-subtract loop, nt::div_round and a
// signed residue map.  Every output must match it bit for bit, on every
// BfvParams preset and on 62-bit towers with t near 2^40, for random inputs
// and for constructed ones: the centering boundaries and values whose
// t y_Q / Q lies within 2^-40 of a half-integer on either side, where the
// double estimate of the t/Q rounding cannot tell the two roundings apart
// and only the exact fix-up can.  Each case runs on the serial path and on
// a pooled executor (labels `bfv` and `parallel`, so the TSan lane covers
// the per-range scratch).
#include "bfv/bfv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

namespace cofhee::bfv {
namespace {

using backend::ExecPolicy;
using poly::RnsBasis;
using poly::RnsPoly;

// ---- Reference: the big-integer formulas, kept here verbatim. ----------

/// CRT lift through Q/q_i and (Q/q_i)^-1 mod q_i.
class BigCrt {
 public:
  explicit BigCrt(const RnsBasis& b) : basis_(b) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      q_hat_.push_back((b.product() / nt::WideInt<1>(b.modulus(i))).resize_trunc<8>());
      q_hat_inv_.push_back(b.tower(i).inv(q_hat_.back().mod_u64(b.modulus(i))));
    }
  }

  [[nodiscard]] BigInt reconstruct(const RnsPoly& p, std::size_t j) const {
    BigInt acc{};
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      const u64 s = basis_.tower(i).mul(p.towers[i][j] % basis_.modulus(i), q_hat_inv_[i]);
      acc += q_hat_[i].mul_small(s);
      if (acc >= basis_.product()) acc -= basis_.product();
    }
    return acc;
  }

 private:
  const RnsBasis& basis_;
  std::vector<BigInt> q_hat_;
  std::vector<u64> q_hat_inv_;
};

u64 signed_mod(const BigInt& mag, bool neg, u64 q) {
  const u64 r = mag.mod_u64(q);
  return neg ? (r == 0 ? 0 : q - r) : r;
}

RnsPoly ref_extend(const BfvContext& ctx, const RnsPoly& p) {
  const auto& qb = ctx.q_basis();
  const auto& eb = ctx.ext_basis();
  const BigCrt crt(qb);
  const BigInt half = qb.product() >> 1;
  RnsPoly out;
  out.towers.assign(eb.size(), poly::Coeffs<u64>(ctx.n()));
  for (std::size_t j = 0; j < ctx.n(); ++j) {
    const BigInt x = crt.reconstruct(p, j);
    const bool neg = x > half;
    const BigInt mag = neg ? qb.product() - x : x;
    for (std::size_t i = 0; i < eb.size(); ++i)
      out.towers[i][j] = signed_mod(mag, neg, eb.modulus(i));
  }
  return out;
}

RnsPoly ref_scale(const BfvContext& ctx, const RnsPoly& y_ext) {
  const auto& qb = ctx.q_basis();
  const auto& eb = ctx.ext_basis();
  const BigCrt crt(eb);
  const BigInt half = eb.product() >> 1;
  RnsPoly out;
  out.towers.assign(qb.size(), poly::Coeffs<u64>(ctx.n()));
  for (std::size_t j = 0; j < ctx.n(); ++j) {
    const BigInt y = crt.reconstruct(y_ext, j);
    const bool neg = y > half;
    const BigInt mag = neg ? eb.product() - y : y;
    u64 carry = 0;
    const BigInt num = mag.mul_small(ctx.t(), &carry);
    EXPECT_EQ(carry, 0u);
    const BigInt m = nt::div_round(num, ctx.big_q());
    for (std::size_t i = 0; i < qb.size(); ++i)
      out.towers[i][j] = signed_mod(m, neg, qb.modulus(i));
  }
  return out;
}

poly::Coeffs<u64> ref_decrypt(const BfvContext& ctx, const RnsPoly& v) {
  const auto& qb = ctx.q_basis();
  const BigCrt crt(qb);
  const BigInt half = qb.product() >> 1;
  const u64 t = ctx.t();
  poly::Coeffs<u64> m(ctx.n());
  for (std::size_t j = 0; j < ctx.n(); ++j) {
    const BigInt x = crt.reconstruct(v, j);
    const bool neg = x > half;
    const BigInt mag = neg ? qb.product() - x : x;
    u64 carry = 0;
    const BigInt num = mag.mul_small(t, &carry);
    EXPECT_EQ(carry, 0u);
    const u64 mt = nt::div_round(num, ctx.big_q()).mod_u64(t);
    m[j] = neg ? (mt == 0 ? 0 : t - mt) : mt;
  }
  return m;
}

std::vector<RnsPoly> ref_relin_digits(const BfvContext& ctx, const RnsPoly& c2,
                                      unsigned w, std::size_t nd) {
  const auto& qb = ctx.q_basis();
  const BigCrt crt(qb);
  const u64 mask = (u64{1} << w) - 1;
  std::vector<RnsPoly> digits(nd);
  for (auto& d : digits) d.towers.assign(qb.size(), poly::Coeffs<u64>(ctx.n()));
  for (std::size_t j = 0; j < ctx.n(); ++j) {
    BigInt x = crt.reconstruct(c2, j);
    for (std::size_t d = 0; d < nd; ++d) {
      const u64 digit = x.limb[0] & mask;
      x >>= w;
      for (std::size_t i = 0; i < qb.size(); ++i)
        digits[d].towers[i][j] = digit % qb.modulus(i);
    }
  }
  return digits;
}

// ---- Presets and inputs. ------------------------------------------------

struct Preset {
  const char* name;
  std::function<BfvParams()> make;
};

const Preset kPresets[] = {
    {"test_tiny", [] { return BfvParams::test_tiny(256); }},
    {"paper_small", [] { return BfvParams::paper_small(); }},
    {"paper_large", [] { return BfvParams::paper_large(); }},
    // Full-width 62-bit towers and a 40-bit t.
    {"towers62_t40", [] { return BfvParams::create(1024, {62, 62}, (u64{1} << 40) - 87); }},
    // A 61-bit t: the double estimate of round(t y_Q / Q) can be off by
    // more than one, so the fix-up takes several steps.
    {"towers62_t61", [] { return BfvParams::create(256, {62, 62}, (u64{1} << 61) - 1); }},
};

/// One scheme per (preset, policy), built once: the phases under test are
/// const, so the cached schemes are shared read-only by every test.
const Bfv& scheme(std::size_t preset, bool pooled) {
  static std::map<std::pair<std::size_t, bool>, std::unique_ptr<Bfv>> cache;
  auto& slot = cache[{preset, pooled}];
  if (!slot)
    slot = std::make_unique<Bfv>(kPresets[preset].make(), 1,
                                 pooled ? ExecPolicy::pooled(3, 16) : ExecPolicy::serial());
  return *slot;
}

RnsPoly random_poly(const RnsBasis& b, std::size_t n, std::uint64_t seed) {
  poly::Rng rng(seed);
  RnsPoly p;
  for (std::size_t i = 0; i < b.size(); ++i)
    p.towers.push_back(poly::sample_uniform(rng, n, b.modulus(i)));
  return p;
}

void set_coeff(RnsPoly& p, const RnsBasis& b, std::size_t j, const BigInt& x) {
  const auto res = b.decompose(x);
  for (std::size_t i = 0; i < b.size(); ++i) p.towers[i][j] = res[i];
}

BigInt random_below(poly::Rng& rng, const BigInt& bound) {
  BigInt x;
  for (auto& l : x.limb) l = rng.next_u64();
  return (x % bound).resize<8>();
}

/// Values x in [0, Q) whose t x / Q lies just below and just above f0 + 1/2
/// for several f0: floor((2 f0 + 1) Q / 2t) and one more.  The window is
/// checked exactly: |2 t x - (2 f0 + 1) Q| < 2Q * 2^-40.
std::vector<BigInt> near_half(const BfvContext& ctx, std::uint64_t seed, int count) {
  const BigInt& q = ctx.big_q();
  const u64 t = ctx.t();
  poly::Rng rng(seed);
  std::vector<BigInt> out;
  for (int c = 0; c < count; ++c) {
    const u64 f0 = c == 0 ? 0 : c == 1 ? t - 1 : rng.uniform_below(t);
    const BigInt num = q.mul_small(2 * f0 + 1);  // (2 f0 + 1) Q
    const BigInt below = num / nt::WideInt<2>(static_cast<u128>(t) * 2);
    for (const BigInt& x : {below, below + BigInt(u64{1})}) {
      const BigInt twice = x.mul_small(2 * t);
      const bool above = twice > num;
      EXPECT_EQ(above, x != below) << "x must straddle f0 + 1/2";
      const BigInt dist = above ? twice - num : num - twice;
      EXPECT_LT(dist << 40, q << 1) << "x outside the 2^-40 window";
      out.push_back(x);
    }
  }
  return out;
}

void expect_equal(const RnsPoly& got, const RnsPoly& want, const std::string& what) {
  ASSERT_EQ(got.num_towers(), want.num_towers()) << what;
  for (std::size_t i = 0; i < got.num_towers(); ++i)
    for (std::size_t j = 0; j < got.towers[i].size(); ++j)
      ASSERT_EQ(got.towers[i][j], want.towers[i][j])
          << what << ", tower " << i << ", coefficient " << j;
}

class WordRns : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {
 protected:
  [[nodiscard]] static const Bfv& bfv() {
    return scheme(std::get<0>(GetParam()), std::get<1>(GetParam()));
  }
  [[nodiscard]] static const BfvContext& ctx() { return bfv().context(); }
  [[nodiscard]] static std::uint64_t seed() { return 11 + std::get<0>(GetParam()); }

  /// decrypt() of (v, 0) reads v itself: c0 + c1 s with c1 = 0.
  [[nodiscard]] static poly::Coeffs<u64> decrypt_value(const RnsPoly& v) {
    Ciphertext ct;
    ct.c = {v, ctx().zero()};
    return bfv().decrypt(SecretKey{ctx().zero()}, ct).coeffs;
  }
};

/// The Q-basis boundary values: 0, 1, floor(Q/2), floor(Q/2) + 1, Q - 1.
std::vector<BigInt> q_edges(const BigInt& q) {
  const BigInt one(u64{1});
  return {BigInt{}, one, q >> 1, (q >> 1) + one, q - one};
}

TEST_P(WordRns, ExtendCenteredMatchesBigInt) {
  const auto& qb = ctx().q_basis();
  RnsPoly p = random_poly(qb, ctx().n(), seed());
  const auto edges = q_edges(qb.product());
  for (std::size_t e = 0; e < edges.size(); ++e) set_coeff(p, qb, e, edges[e]);
  expect_equal(bfv().extend_centered_public(p), ref_extend(ctx(), p), "extend");
}

TEST_P(WordRns, ScaleRoundMatchesBigInt) {
  const auto& eb = ctx().ext_basis();
  RnsPoly y = random_poly(eb, ctx().n(), seed() + 100);
  const BigInt one(u64{1});
  const BigInt& p = eb.product();
  std::vector<BigInt> edges = {BigInt{}, p >> 1, (p >> 1) + one, p - one};
  // y = y_Q + Q y_B with t y_Q / Q next to a half-integer, once with a small
  // y_B (y < P/2) and once with a large one (y > P/2).
  const BigInt b = (p / ctx().big_q()).resize<8>();
  poly::Rng rng(seed() + 200);
  for (const BigInt& yq : near_half(ctx(), seed() + 300, 24)) {
    edges.push_back(yq + ctx().big_q() * random_below(rng, b >> 1));
    edges.push_back(yq + ctx().big_q() * (b - one - random_below(rng, b >> 1)));
  }
  ASSERT_LE(edges.size(), ctx().n());
  for (std::size_t e = 0; e < edges.size(); ++e) set_coeff(y, eb, e, edges[e]);
  expect_equal(bfv().scale_round_public(y), ref_scale(ctx(), y), "scale_round");
}

TEST_P(WordRns, DecryptMatchesBigInt) {
  const auto& qb = ctx().q_basis();
  RnsPoly v = random_poly(qb, ctx().n(), seed() + 400);
  std::vector<BigInt> edges = q_edges(qb.product());
  for (const BigInt& x : near_half(ctx(), seed() + 500, 24)) edges.push_back(x);
  ASSERT_LE(edges.size(), ctx().n());
  for (std::size_t e = 0; e < edges.size(); ++e) set_coeff(v, qb, e, edges[e]);
  const auto got = decrypt_value(v);
  const auto want = ref_decrypt(ctx(), v);
  for (std::size_t j = 0; j < ctx().n(); ++j)
    ASSERT_EQ(got[j], want[j]) << "coefficient " << j;
}

TEST_P(WordRns, RelinDigitsMatchBigInt) {
  const auto& qb = ctx().q_basis();
  RnsPoly c2 = random_poly(qb, ctx().n(), seed() + 600);
  const auto edges = q_edges(qb.product());
  for (std::size_t e = 0; e < edges.size(); ++e) set_coeff(c2, qb, e, edges[e]);
  for (unsigned w : {7u, 16u, 32u}) {
    // validate_relin_keys reads only the key shapes, so zero keys suffice.
    RelinKeys rk;
    rk.digit_bits = w;
    const std::size_t nd = (qb.log_q() + w - 1) / w + (w == 7 ? 2 : 0);
    rk.keys.assign(nd, {ctx().zero(), ctx().zero()});
    const auto got = bfv().relin_digits_public(c2, rk);
    const auto want = ref_relin_digits(ctx(), c2, w, nd);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t d = 0; d < nd; ++d)
      expect_equal(got[d], want[d], "w " + std::to_string(w) + ", digit " + std::to_string(d));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, WordRns,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kPresets)),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(kPresets[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) ? "_pooled" : "_serial");
    });

}  // namespace
}  // namespace cofhee::bfv
