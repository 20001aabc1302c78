#include "chip/sram.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "nt/primes.hpp"

namespace cofhee::chip {

namespace {

// The bus beat at byte b is bits [8*(b % 16), 8*(b % 16) + 32) of word
// b / 16.  On a little-endian host those are bytes [b, b + 4) of the word
// array, so a burst of beats is one copy.
static_assert(std::endian::native == std::endian::little,
              "Sram bus bursts copy the little-endian word image");

void check_beat_aligned(std::size_t byte_off) {
  if (byte_off % 4 != 0)
    throw std::invalid_argument("Sram: bus beats must be 4-byte aligned");
}

}  // namespace

void Sram::read_words32(std::size_t byte_off, std::uint32_t* out, std::size_t count) {
  check_beat_aligned(byte_off);
  bounds_block(byte_off / 16, (byte_off % 16 + 4 * count + 15) / 16);
  std::memcpy(out, reinterpret_cast<const unsigned char*>(data_.data()) + byte_off,
              4 * count);
  reads_ += count;
}

void Sram::write_words32(std::size_t byte_off, const std::uint32_t* words,
                         std::size_t count) {
  check_beat_aligned(byte_off);
  bounds_block(byte_off / 16, (byte_off % 16 + 4 * count + 15) / 16);
  std::memcpy(reinterpret_cast<unsigned char*>(data_.data()) + byte_off, words,
              4 * count);
  writes_ += count;
  ++generation_;
}

MemorySystem::MemorySystem(const ChipConfig& cfg) {
  banks_.reserve(kNumBanks);
  const unsigned lat = cfg.mem_read_latency;
  banks_.emplace_back("DP0", cfg.bank_words, 2u, lat);
  banks_.emplace_back("DP1", cfg.bank_words, 2u, lat);
  banks_.emplace_back("DP2", cfg.bank_words, 2u, lat);
  banks_.emplace_back("SP0", cfg.bank_words, 1u, lat);
  banks_.emplace_back("SP1", cfg.bank_words, 1u, lat);
  banks_.emplace_back("SP2", cfg.bank_words, 1u, lat);
  banks_.emplace_back("SP3", cfg.bank_words, 1u, lat);
  banks_.emplace_back("TW", cfg.bank_words, 1u, lat);
}

std::size_t MemorySystem::total_bytes() const {
  std::size_t bytes = 0;
  for (const auto& b : banks_) bytes += b.words() * 16;  // 128-bit words
  return bytes;
}

void copy_words(Sram& src, std::size_t src_off, Sram& dst, std::size_t dst_off,
                std::size_t len, bool bit_reverse) {
  if (len == 0) return;
  const unsigned logl = bit_reverse ? nt::log2_exact(len) : 0;
  const auto at = [&](std::size_t i) { return bit_reverse ? nt::bit_reverse(i, logl) : i; };
  if (&src == &dst && src_off < dst_off + len && dst_off < src_off + len) {
    for (std::size_t i = 0; i < len; ++i) dst.write(dst_off + at(i), src.read(src_off + i));
    return;
  }
  (void)dst.peek_block(dst_off, len);  // bounds only
  const std::span<const u128> in = src.read_block(src_off, len);
  const std::span<u128> out = dst.write_block(dst_off, len);
  if (!bit_reverse) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  for (std::size_t i = 0; i < len; ++i) out[at(i)] = in[i];
}

}  // namespace cofhee::chip
