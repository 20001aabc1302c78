#include "bfv/encoder.hpp"

#include <stdexcept>

#include "nt/primes.hpp"

namespace cofhee::bfv {

Plaintext IntegerEncoder::encode(std::int64_t v) const {
  Plaintext p;
  p.coeffs.assign(n_, 0);
  const std::int64_t tt = static_cast<std::int64_t>(t_);
  std::int64_t r = v % tt;
  if (r < 0) r += tt;
  p.coeffs[0] = static_cast<u64>(r);
  return p;
}

std::int64_t IntegerEncoder::decode(const Plaintext& p) const {
  const u64 c = p.coeffs.at(0);
  // Centered interpretation.
  return c > t_ / 2 ? static_cast<std::int64_t>(c) - static_cast<std::int64_t>(t_)
                    : static_cast<std::int64_t>(c);
}

// primitive_2nth_root rejects a t that is not 1 mod 2n.
BatchEncoder::BatchEncoder(const BfvContext& ctx)
    : ntt_(nt::Barrett64(ctx.t()), ctx.n(),
           nt::primitive_2nth_root(ctx.t(), ctx.n())) {}

Plaintext BatchEncoder::encode(const std::vector<u64>& values) const {
  if (values.size() > ntt_.n())
    throw std::invalid_argument("BatchEncoder: too many values");
  poly::Coeffs<u64> slots(ntt_.n(), 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= ntt_.modulus())
      throw std::invalid_argument("BatchEncoder: value >= t");
    slots[i] = values[i];
  }
  // Slot values live in the NTT domain of R_t; the plaintext polynomial is
  // the inverse transform.
  ntt_.inverse(slots);
  return Plaintext{std::move(slots)};
}

std::vector<u64> BatchEncoder::decode(const Plaintext& p) const {
  if (p.coeffs.size() != ntt_.n())
    throw std::invalid_argument("BatchEncoder: bad plaintext");
  for (const u64 c : p.coeffs)
    if (c >= ntt_.modulus()) throw std::invalid_argument("BatchEncoder: coefficient >= t");
  poly::Coeffs<u64> slots = p.coeffs;
  ntt_.forward(slots);
  return slots;
}

}  // namespace cofhee::bfv
