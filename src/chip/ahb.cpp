#include "chip/ahb.hpp"

namespace cofhee::chip {

void AhbBus::attach(AhbSlave slave) {
  if (slave.size == 0) throw std::invalid_argument("AhbBus: zero-size slave");
  for (const auto& s : slaves_) {
    const bool overlap =
        slave.base < s.base + s.size && s.base < slave.base + slave.size;
    if (overlap)
      throw std::invalid_argument("AhbBus: address range of " + slave.name +
                                  " overlaps " + s.name);
  }
  slaves_.push_back(std::move(slave));
}

AhbSlave& AhbBus::route(std::uint32_t addr) {
  for (auto& s : slaves_) {
    if (addr >= s.base && addr < s.base + s.size) return s;
  }
  throw std::out_of_range("AhbBus: unmapped address");
}

std::uint32_t AhbBus::read32(BusMaster m, std::uint32_t addr) {
  auto& s = route(addr);
  ++stats_[static_cast<std::size_t>(m)].reads;
  return s.read32(addr - s.base);
}

void AhbBus::write32(BusMaster m, std::uint32_t addr, std::uint32_t value) {
  auto& s = route(addr);
  ++stats_[static_cast<std::size_t>(m)].writes;
  s.write32(addr - s.base, value);
}

unsigned __int128 AhbBus::read128(BusMaster m, std::uint32_t addr) {
  unsigned __int128 v = 0;
  for (int w = 3; w >= 0; --w)
    v = (v << 32) | read32(m, addr + static_cast<std::uint32_t>(w) * 4);
  return v;
}

void AhbBus::write128(BusMaster m, std::uint32_t addr, unsigned __int128 value) {
  for (std::uint32_t w = 0; w < 4; ++w) {
    write32(m, addr + w * 4, static_cast<std::uint32_t>(value));
    value >>= 32;
  }
}

AhbSlave* AhbBus::burst_slave(std::uint32_t addr, std::size_t count) {
  if (count == 0 || addr % 4 != 0) return nullptr;
  AhbSlave& s = route(addr);
  const std::uint64_t end = std::uint64_t{addr} - s.base + 4 * std::uint64_t{count};
  if (!s.read_burst || !s.write_burst || end > s.size) return nullptr;
  return &s;
}

void AhbBus::read_burst(BusMaster m, std::uint32_t addr, std::uint32_t* out,
                        std::size_t count) {
  if (AhbSlave* s = burst_slave(addr, count)) {
    stats_[static_cast<std::size_t>(m)].reads += count;
    s->read_burst(addr - s->base, out, count);
    return;
  }
  for (std::size_t i = 0; i < count; ++i)
    out[i] = read32(m, addr + static_cast<std::uint32_t>(i) * 4);
}

void AhbBus::write_burst(BusMaster m, std::uint32_t addr, const std::uint32_t* words,
                         std::size_t count) {
  if (AhbSlave* s = burst_slave(addr, count)) {
    stats_[static_cast<std::size_t>(m)].writes += count;
    s->write_burst(addr - s->base, words, count);
    return;
  }
  for (std::size_t i = 0; i < count; ++i)
    write32(m, addr + static_cast<std::uint32_t>(i) * 4, words[i]);
}

}  // namespace cofhee::chip
