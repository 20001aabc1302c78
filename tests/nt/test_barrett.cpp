#include "nt/barrett.hpp"
#include "nt/montgomery.hpp"
#include "nt/primes.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace cofhee::nt {
namespace {

u128 naive_mulmod128(u128 a, u128 b, u128 q) {
  const auto p = WideInt<2>(a).mul_full(WideInt<2>(b));
  return (p % WideInt<2>(q)).to_u128();
}

TEST(Barrett64, RejectsBadModuli) {
  EXPECT_THROW(Barrett64(0), std::invalid_argument);
  EXPECT_THROW(Barrett64(1), std::invalid_argument);
  EXPECT_THROW(Barrett64(u64{1} << 63), std::invalid_argument);
}

TEST(Barrett64, ReduceMatchesNativeModulo) {
  std::mt19937_64 rng(11);
  for (u64 q : {u64{3}, u64{17}, u64{65537}, u64{(1ull << 61) - 1},
                u64{0x3FFFFFFFFFFFFFFFull}}) {
    Barrett64 br(q);
    for (int i = 0; i < 2000; ++i) {
      const u64 a = rng() % q, b = rng() % q;
      const u128 x = static_cast<u128>(a) * b;
      EXPECT_EQ(br.reduce(x), static_cast<u64>(x % q));
      EXPECT_EQ(br.mul(a, b), static_cast<u64>(x % q));
    }
  }
}

TEST(Barrett64, AddSubNeg) {
  Barrett64 br(101);
  EXPECT_EQ(br.add(100, 100), 99u);
  EXPECT_EQ(br.add(0, 0), 0u);
  EXPECT_EQ(br.sub(3, 5), 99u);
  EXPECT_EQ(br.sub(5, 3), 2u);
  EXPECT_EQ(br.neg(0), 0u);
  EXPECT_EQ(br.neg(1), 100u);
}

TEST(Barrett64, PowAndInv) {
  const u64 q = find_ntt_prime_u64(40, 1024);
  Barrett64 br(q);
  std::mt19937_64 rng(12);
  for (int i = 0; i < 200; ++i) {
    const u64 a = 1 + rng() % (q - 1);
    const u64 ai = br.inv(a);
    EXPECT_EQ(br.mul(a, ai), 1u);
  }
  EXPECT_EQ(br.pow(2, 10), 1024u % q);
  EXPECT_THROW((void)br.inv(0), std::domain_error);
}

TEST(Shoup, MatchesBarrett) {
  const u64 q = find_ntt_prime_u64(55, 4096);
  Barrett64 br(q);
  std::mt19937_64 rng(13);
  for (int i = 0; i < 500; ++i) {
    const u64 w = rng() % q;
    ShoupMul sm(w, q);
    for (int j = 0; j < 20; ++j) {
      const u64 x = rng() % q;
      EXPECT_EQ(sm.mul(x), br.mul(w, x));
    }
  }
}

TEST(Barrett128, ReduceMatchesWideModulo) {
  std::mt19937_64 rng(14);
  const u128 q109 = find_ntt_prime_u128(109, 4096);
  const u128 qbig = (static_cast<u128>(0xFFFFFFFFFFFFFFFFull) << 60) | 0x1ull;
  for (u128 q : {static_cast<u128>(97), static_cast<u128>((1ull << 62) - 57),
                 q109, qbig}) {
    Barrett128 br(q);
    for (int i = 0; i < 500; ++i) {
      const u128 a = ((static_cast<u128>(rng()) << 64) | rng()) % q;
      const u128 b = ((static_cast<u128>(rng()) << 64) | rng()) % q;
      EXPECT_EQ(br.mul(a, b), naive_mulmod128(a, b, q));
    }
  }
}

TEST(Barrett128, FullWidthModulusEdge) {
  // Near-maximal 128-bit modulus: stresses the wide conditional-subtract path.
  const u128 q = ~u128{0} - 158;  // arbitrary large odd value
  Barrett128 br(q);
  const u128 a = q - 1, b = q - 2;
  EXPECT_EQ(br.mul(a, b), naive_mulmod128(a, b, q));
  EXPECT_EQ(br.add(q - 1, q - 1), q - 2);
  EXPECT_EQ(br.sub(0, 1), q - 1);
}

TEST(Barrett128, PowInvRoundtrip) {
  const u128 q = find_ntt_prime_u128(109, 4096);
  Barrett128 br(q);
  std::mt19937_64 rng(15);
  for (int i = 0; i < 50; ++i) {
    const u128 a = 1 + ((static_cast<u128>(rng()) << 64) | rng()) % (q - 1);
    EXPECT_EQ(br.mul(a, br.inv(a)), u128{1});
  }
}

TEST(Barrett128, BarrettConstantMatchesPaperRegisterWidth) {
  // Table II: BARRETTCTL2 holds 2^k_b / q in a 160-bit register.  For any
  // modulus up to 128 bits, mu = floor(2^(2k)/q) needs at most k+1 <= 129
  // bits, so it fits the silicon register with margin.
  const u128 q = find_ntt_prime_u128(127, 8192);
  Barrett128 br(q);
  EXPECT_LE(br.mu().bit_len(), 160u);
  EXPECT_GE(br.mu().bit_len(), br.k());
}

u128 naive_powmod128(u128 base, u128 exp, u128 q) {
  u128 r = 1 % q, b = base % q;
  for (; exp != 0; exp >>= 1) {
    if (exp & 1) r = naive_mulmod128(r, b, q);
    b = naive_mulmod128(b, b, q);
  }
  return r;
}

/// Miller-Rabin on naive_mulmod128 (bases 2..37: exact below 2^81, and no
/// known strong pseudoprime to all of them above), so that picking the
/// sweep's primes does not depend on the Barrett128 under test.
bool naive_is_prime(u128 n) {
  if (n < 2) return false;
  const u64 bases[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
  for (const u64 p : bases)
    if (n % p == 0) return n == p;
  u128 d = n - 1;
  unsigned s = 0;
  for (; (d & 1) == 0; d >>= 1) ++s;
  for (const u64 a : bases) {
    u128 x = naive_powmod128(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (unsigned i = 1; i < s && witness; ++i) {
      x = naive_mulmod128(x, x, n);
      witness = x != n - 1;
    }
    if (witness) return false;
  }
  return true;
}

u128 random_u128(std::mt19937_64& rng) {
  return (static_cast<u128>(rng()) << 64) | rng();
}

// Differential sweep over every modulus width the class accepts, including
// the corners where q1, mu or r carry past 2^128 (k >= 127) and the powers
// of two whose mu = 2^(k+1) is one bit wider than for any other k-bit q.
TEST(Barrett128, EveryBitSizeMatchesNaiveModulo) {
  std::mt19937_64 rng(18);
  std::vector<u128> moduli = {(u128{1} << 127) + 1, ~u128{0}};
  for (unsigned k = 2; k <= 128; ++k) {
    const u128 top = u128{1} << (k - 1);  // 2^(k-1), so 2^126 and 2^127 too
    const u128 span = top - 1;
    moduli.push_back(top);
    moduli.push_back(top + (random_u128(rng) % span | 1));  // odd, k bits
    u128 prime = top + span;  // largest prime below 2^k
    while (!naive_is_prime(prime)) prime -= 2;
    moduli.push_back(prime);
  }
  for (const u128 q : moduli) {
    const Barrett128 br(q);
    const bool prime = naive_is_prime(q);
    std::vector<u128> ops = {0, 1, q - 1, q - 2};
    for (int i = 0; i < 6; ++i) {
      ops.push_back(random_u128(rng) % q);
      // Near q - 1 the quotient estimate is most often two short.
      ops.push_back(q - 1 - (random_u128(rng) >> (rng() % 128)) % q);
    }
    for (const u128 a : ops) {
      for (const u128 b : ops) {
        ASSERT_EQ(br.mul(a, b), naive_mulmod128(a, b, q))
            << "k=" << br.k() << " q=" << WideInt<2>(q).to_string();
      }
      const u128 e = random_u128(rng) >> (rng() % 128);
      ASSERT_EQ(br.pow(a, e), naive_powmod128(a, e, q))
          << "k=" << br.k() << " q=" << WideInt<2>(q).to_string();
      if (a % q == 0) continue;
      const u128 ai = br.inv(a);
      ASSERT_EQ(ai, naive_powmod128(a, q - 2, q))
          << "k=" << br.k() << " q=" << WideInt<2>(q).to_string();
      if (prime) {
        ASSERT_EQ(naive_mulmod128(a, ai, q), u128{1});
      }
    }
  }
}

TEST(Montgomery64, MatchesBarrett) {
  const u64 q = find_ntt_prime_u64(55, 4096);
  Barrett64 br(q);
  Montgomery64 mont(q);
  std::mt19937_64 rng(16);
  for (int i = 0; i < 2000; ++i) {
    const u64 a = rng() % q, b = rng() % q;
    EXPECT_EQ(mont.mul(a, b), br.mul(a, b));
  }
}

TEST(Montgomery64, DomainRoundTrip) {
  const u64 q = find_ntt_prime_u64(50, 1024);
  Montgomery64 mont(q);
  std::mt19937_64 rng(17);
  for (int i = 0; i < 500; ++i) {
    const u64 a = rng() % q;
    EXPECT_EQ(mont.from_mont(mont.to_mont(a)), a);
  }
}

TEST(Montgomery64, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery64(100), std::invalid_argument);
}

// Property sweep: Barrett reduction correct across the full modulus size
// range the chip supports (BARRETTCTL1 programs k per modulus).
class BarrettBitSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BarrettBitSweep, RandomProductsReduceCorrectly) {
  const unsigned bits = GetParam();
  const u128 q = find_ntt_prime_u128(bits, 64);
  Barrett128 br(q);
  std::mt19937_64 rng(100 + bits);
  for (int i = 0; i < 200; ++i) {
    const u128 a = ((static_cast<u128>(rng()) << 64) | rng()) % q;
    const u128 b = ((static_cast<u128>(rng()) << 64) | rng()) % q;
    EXPECT_EQ(br.mul(a, b), naive_mulmod128(a, b, q));
  }
}

INSTANTIATE_TEST_SUITE_P(ModulusSizes, BarrettBitSweep,
                         ::testing::Values(12u, 20u, 30u, 44u, 54u, 55u, 60u,
                                           80u, 100u, 109u, 118u, 127u));

}  // namespace
}  // namespace cofhee::nt
