#include "nt/primes.hpp"

#include <limits>
#include <stdexcept>

namespace cofhee::nt {

namespace {

u64 mulmod_u64(u64 a, u64 b, u64 m) {
  return static_cast<u64>(static_cast<u128>(a) * b % m);
}

u64 powmod_u64(u64 base, u64 exp, u64 m) {
  u64 r = 1;
  base %= m;
  while (exp != 0) {
    if (exp & 1) r = mulmod_u64(r, base, m);
    base = mulmod_u64(base, base, m);
    exp >>= 1;
  }
  return r;
}

bool miller_rabin_u64(u64 n, u64 a) {
  if (a % n == 0) return true;
  u64 d = n - 1;
  unsigned s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  u64 x = powmod_u64(a, d, n);
  if (x == 1 || x == n - 1) return true;
  for (unsigned i = 1; i < s; ++i) {
    x = mulmod_u64(x, x, n);
    if (x == n - 1) return true;
  }
  return false;
}

bool miller_rabin_u128(const Barrett128& ring, u128 a) {
  const u128 n = ring.modulus();
  if (a % n == 0) return true;
  u128 d = n - 1;
  unsigned s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  u128 x = ring.pow(a, d);
  if (x == 1 || x == n - 1) return true;
  for (unsigned i = 1; i < s; ++i) {
    x = ring.mul(x, x);
    if (x == n - 1) return true;
  }
  return false;
}

// xorshift generator for Miller-Rabin witness sampling; determinism keeps
// prime searches reproducible across runs.
struct XorShift64 {
  u64 s;
  u64 next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

}  // namespace

bool is_prime(u64 n) {
  if (n < 2) return false;
  for (u64 p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull, 31ull}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  // Deterministic for all 64-bit n (Sinclair base set).
  for (u64 a : {2ull, 325ull, 9375ull, 28178ull, 450775ull, 9780504ull, 1795265022ull}) {
    if (!miller_rabin_u64(n, a)) return false;
  }
  return true;
}

bool is_prime(u128 n) {
  if (n <= std::numeric_limits<u64>::max()) return is_prime(static_cast<u64>(n));
  for (u64 p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull,
                31ull, 37ull, 41ull, 43ull, 47ull}) {
    if (n % p == 0) return false;
  }
  const Barrett128 ring(n);
  XorShift64 rng{0x9E3779B97F4A7C15ull ^ static_cast<u64>(n)};
  for (int i = 0; i < 24; ++i) {
    const u128 a = 2 + (static_cast<u128>(rng.next()) % (n - 3));
    if (!miller_rabin_u128(ring, a)) return false;
  }
  return true;
}

u64 find_ntt_prime_u64(unsigned bits, std::size_t n, u64 seed) {
  if (bits < 4 || bits > 62) throw std::invalid_argument("find_ntt_prime_u64: bits in [4,62]");
  if (!is_power_of_two(n)) throw std::invalid_argument("find_ntt_prime_u64: n must be 2^k");
  const u64 step = 2 * static_cast<u64>(n);
  const u64 lo = u64{1} << (bits - 1);
  const u64 hi = (bits == 64) ? ~u64{0} : (u64{1} << bits) - 1;
  // Scan downward from 2^bits - 1 (SEAL convention: log q_i ~ bits), keeping
  // q == 1 mod 2n; `seed` selects the (seed+1)-th prime found so distinct
  // seeds give distinct, coprime moduli.
  u64 c = hi;
  c -= (c - 1) % step;
  u64 skip = seed;
  for (; c >= lo; c -= step) {
    if (is_prime(c)) {
      if (skip == 0) return c;
      --skip;
    }
    if (c < lo + step) break;  // avoid wrap
  }
  throw std::runtime_error("find_ntt_prime_u64: no prime in range");
}

u128 find_ntt_prime_u128(unsigned bits, std::size_t n, u64 seed) {
  if (bits < 4 || bits > 127)
    throw std::invalid_argument("find_ntt_prime_u128: bits in [4,127]");
  if (bits <= 62) return find_ntt_prime_u64(bits, n, seed);
  if (!is_power_of_two(n)) throw std::invalid_argument("find_ntt_prime_u128: n must be 2^k");
  const u128 step = 2 * static_cast<u128>(n);
  const u128 lo = u128{1} << (bits - 1);
  const u128 hi = (u128{1} << bits) - 1;
  u128 c = hi;
  c -= (c - 1) % step;
  u64 skip = seed;
  for (; c >= lo; c -= step) {
    if (is_prime(c)) {
      if (skip == 0) return c;
      --skip;
    }
    if (c < lo + step) break;  // avoid wrap
  }
  throw std::runtime_error("find_ntt_prime_u128: no prime in range");
}

std::vector<u64> ntt_prime_chain(unsigned bits, std::size_t n, std::size_t count) {
  std::vector<u64> primes;
  primes.reserve(count);
  u64 seed = 0;
  while (primes.size() < count) {
    u64 q = find_ntt_prime_u64(bits, n, seed++);
    bool dup = false;
    for (u64 p : primes) dup = dup || (p == q);
    if (!dup) primes.push_back(q);
    if (seed > 4096) throw std::runtime_error("ntt_prime_chain: exhausted search");
  }
  return primes;
}

u64 primitive_2nth_root(u64 q, std::size_t n) {
  if ((q - 1) % (2 * n) != 0)
    throw std::invalid_argument("primitive_2nth_root: q != 1 mod 2n");
  const u64 exp = (q - 1) / (2 * static_cast<u64>(n));
  // psi = g^((q-1)/2n) has order dividing 2n; it is primitive iff
  // psi^n == -1.  Scan deterministic candidates.
  for (u64 g = 2; g < q; ++g) {
    const u64 psi = powmod_u64(g, exp, q);
    if (powmod_u64(psi, static_cast<u64>(n), q) == q - 1) return psi;
  }
  throw std::runtime_error("primitive_2nth_root: none found (q not prime?)");
}

u128 primitive_2nth_root(u128 q, std::size_t n) {
  if (q <= std::numeric_limits<u64>::max())
    return primitive_2nth_root(static_cast<u64>(q), n);
  if ((q - 1) % (2 * static_cast<u128>(n)) != 0)
    throw std::invalid_argument("primitive_2nth_root: q != 1 mod 2n");
  const u128 exp = (q - 1) / (2 * static_cast<u128>(n));
  const Barrett128 ring(q);
  for (u128 g = 2; g < 1000; ++g) {
    const u128 psi = ring.pow(g, exp);
    if (ring.pow(psi, static_cast<u128>(n)) == q - 1) return psi;
  }
  throw std::runtime_error("primitive_2nth_root: none found (q not prime?)");
}

std::vector<std::size_t> bit_reverse_table(std::size_t n) {
  if (!is_power_of_two(n)) throw std::invalid_argument("bit_reverse_table: n must be 2^k");
  const unsigned bits = log2_exact(n);
  std::vector<std::size_t> t(n);
  for (std::size_t i = 0; i < n; ++i) t[i] = bit_reverse(i, bits);
  return t;
}

}  // namespace cofhee::nt
