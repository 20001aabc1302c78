#include "chip/chip.hpp"

namespace cofhee::chip {

CofheeChip::CofheeChip(ChipConfig cfg, EnergyTable energy)
    : cfg_(cfg), mem_(cfg), trace_(energy, cfg.cycle_ns()),
      mdmc_(cfg, mem_, gpcfg_, pe_, trace_), dma_(cfg, mem_, trace_),
      fifo_(cfg, mdmc_, gpcfg_),
      uart_(bus_, 3'000'000.0),   // FTDI bring-up link (Section V-F)
      spi_(bus_, 50'000'000.0),   // SPI timing constraint (Section III-K)
      cm0_sram_(cfg.cm0_sram_bytes / 4, 0) {
  attach_slaves();
  gpcfg_.on_command_push = [this](const std::array<std::uint32_t, 4>& words) {
    fifo_.push_encoded(words);
  };
}

void CofheeChip::attach_slaves() {
  // CM0 instruction/data SRAM.
  bus_.attach(AhbSlave{
      .name = "CM0_SRAM",
      .base = MemoryMap::kCm0SramBase,
      .size = static_cast<std::uint32_t>(cm0_sram_.size() * 4),
      .read32 = [this](std::uint32_t off) { return cm0_sram_.at(off / 4); },
      .write32 = [this](std::uint32_t off,
                        std::uint32_t v) { cm0_sram_.at(off / 4) = v; },
  });

  // Data banks; dual-port banks additionally expose a port-B address space.
  for (std::size_t i = 0; i < kNumBanks; ++i) {
    const Bank b = static_cast<Bank>(i);
    Sram& bank = mem_.bank(b);
    auto rd = [&bank](std::uint32_t off) {
      const u128 w = bank.read(off / 16);
      return static_cast<std::uint32_t>(w >> (8 * (off % 16)));
    };
    auto wr = [&bank](std::uint32_t off, std::uint32_t v) {
      u128 w = bank.peek(off / 16);
      const unsigned shift = 8 * (off % 16);
      const u128 mask = static_cast<u128>(0xFFFFFFFFu) << shift;
      w = (w & ~mask) | (static_cast<u128>(v) << shift);
      bank.write(off / 16, w);
    };
    auto rd_burst = [&bank](std::uint32_t off, std::uint32_t* out, std::size_t count) {
      bank.read_words32(off, out, count);
    };
    auto wr_burst = [&bank](std::uint32_t off, const std::uint32_t* words,
                            std::size_t count) { bank.write_words32(off, words, count); };
    const auto base = static_cast<std::uint32_t>(MemoryMap::kDataSramBase +
                                                 i * MemoryMap::kBankStride);
    const auto size = static_cast<std::uint32_t>(bank.words() * 16);
    bus_.attach(AhbSlave{bank.name(), base, size, rd, wr, rd_burst, wr_burst});
    if (bank.dual_port()) {
      bus_.attach(AhbSlave{bank.name() + "_portB", base + MemoryMap::kPortBOffset,
                           size, rd, wr, rd_burst, wr_burst});
    }
  }

  // Configuration registers.
  bus_.attach(AhbSlave{
      .name = "GPCFG",
      .base = MemoryMap::kGpcfgBase,
      .size = 0x100,
      .read32 = [this](std::uint32_t off) { return gpcfg_.read_word(off); },
      .write32 = [this](std::uint32_t off,
                        std::uint32_t v) { gpcfg_.write_word(off, v); },
  });
}

std::uint64_t CofheeChip::direct_execute(const Instr& in) {
  const std::uint64_t c = mdmc_.execute(in);
  cycles_ += c;
  return c;
}

std::uint64_t CofheeChip::run_fifo() {
  const std::uint64_t c = fifo_.run();
  cycles_ += c;
  return c;
}

void CofheeChip::reset_metrics() {
  cycles_ = 0;
  trace_.clear();
  mdmc_.reset_stats();
  dma_.reset_stats();
  uart_.reset_stats();
  spi_.reset_stats();
  for (std::size_t i = 0; i < kNumBanks; ++i)
    mem_.bank(static_cast<Bank>(i)).reset_counters();
}

void CofheeChip::load_coeffs(Bank b, std::size_t offset, std::span<const u128> data) {
  Sram& bank = mem_.bank(b);
  for (std::size_t i = 0; i < data.size(); ++i) bank.poke(offset + i, data[i]);
}

std::vector<u128> CofheeChip::read_coeffs(Bank b, std::size_t offset,
                                          std::size_t count) const {
  const Sram& bank = mem_.bank(b);
  std::vector<u128> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = bank.peek(offset + i);
  return out;
}

}  // namespace cofhee::chip
