// Plaintext encoders.
//
// IntegerEncoder places a (signed) scalar in the constant coefficient --
// enough for the quickstart example.  BatchEncoder packs n independent Z_t
// slots via the negacyclic NTT over the plaintext ring -- the same
// MergedNtt64 engine the ciphertext towers run (t = 65537 is prime
// with t == 1 mod 2n for every n <= 2^15, so the paper's parameter sets all
// batch) -- this is what CryptoNets-style applications (Section VI-C)
// rely on for their throughput.
#pragma once

#include <cstdint>
#include <vector>

#include "bfv/bfv.hpp"
#include "poly/merged_ntt.hpp"

namespace cofhee::bfv {

class IntegerEncoder {
 public:
  explicit IntegerEncoder(const BfvContext& ctx) : n_(ctx.n()), t_(ctx.t()) {}

  [[nodiscard]] Plaintext encode(std::int64_t v) const;
  [[nodiscard]] std::int64_t decode(const Plaintext& p) const;

 private:
  std::size_t n_;
  u64 t_;
};

class BatchEncoder {
 public:
  explicit BatchEncoder(const BfvContext& ctx);

  [[nodiscard]] std::size_t slot_count() const noexcept { return ntt_.n(); }

  /// values.size() <= n, every value < t; missing slots are zero.
  [[nodiscard]] Plaintext encode(const std::vector<u64>& values) const;
  /// p must hold n coefficients, each < t.
  [[nodiscard]] std::vector<u64> decode(const Plaintext& p) const;

 private:
  poly::MergedNtt64 ntt_;
};

}  // namespace cofhee::bfv
