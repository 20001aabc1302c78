#include "chip/dma.hpp"

#include <stdexcept>

#include "nt/primes.hpp"

namespace cofhee::chip {

void Dma::move(const MemRef& src, const MemRef& dst, std::size_t len,
               bool bit_reverse) {
  if (bit_reverse && !nt::is_power_of_two(len))
    throw std::invalid_argument("Dma: bit-reverse transfer needs power-of-two length");
  copy_words(mem_.bank(src.bank), src.offset, mem_.bank(dst.bank), dst.offset, len,
             bit_reverse);
  ++stats_.transfers;
  stats_.words_moved += len;
}

std::uint64_t Dma::transfer(const MemRef& src, const MemRef& dst, std::size_t len,
                            bool bit_reverse) {
  move(src, dst, len, bit_reverse);
  const std::uint64_t cycles = burst_cycles(len);
  stats_.cycles_blocking += cycles;
  PowerSegment seg;
  seg.cycles = cycles;
  seg.dma_words = cycles;  // one 8-word burst per cycle
  seg.label = "dma-transfer";
  trace_.append(seg);
  return cycles;
}

std::uint64_t Dma::background_transfer(const MemRef& src, const MemRef& dst,
                                       std::size_t len,
                                       std::uint64_t window_cycles) {
  move(src, dst, len, /*bit_reverse=*/false);
  const std::uint64_t cycles = burst_cycles(len);
  if (!cfg_.dma_background) {
    stats_.cycles_blocking += cycles;
    PowerSegment seg;
    seg.cycles = cycles;
    seg.dma_words = cycles;
    seg.label = "dma-foreground";
    trace_.append(seg);
    return cycles;
  }
  const std::uint64_t hidden = cycles < window_cycles ? cycles : window_cycles;
  stats_.cycles_hidden += hidden;
  const std::uint64_t residue = cycles - hidden;
  if (residue > 0) {
    stats_.cycles_blocking += residue;
    PowerSegment seg;
    seg.cycles = residue;
    seg.dma_words = residue;
    seg.label = "dma-residue";
    trace_.append(seg);
  }
  return residue;
}

}  // namespace cofhee::chip
