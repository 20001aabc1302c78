// AHB-Lite interconnect (paper Section III-G1).
//
// A lightweight parameterized crossbar: slaves claim address ranges, and
// any master (host bridge, DMA, MDMC, ARM CM0) issues single or burst
// transfers of 32 to 128 bits.  The silicon's bus is a 10x11 crossbar of
// 0.07 mm^2 in 55 nm -- two orders of magnitude smaller than F1's trio of
// 3.33 mm^2 crossbars, a contrast Table XI's normalization leans on.
// Masters targeting different slaves proceed in parallel (the property the
// Section III-F DMA overlap depends on); the model enforces range
// exclusivity and counts per-master transactions.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace cofhee::chip {

enum class BusMaster : std::uint8_t {
  kHostUart = 0,
  kHostSpi = 1,
  kMdmc = 2,
  kDma = 3,
  kCm0 = 4,
};
inline constexpr std::size_t kNumMasters = 5;

/// A bus slave: word-granular 32-bit handlers over a byte-address range,
/// plus optional burst handlers for a run of consecutive 32-bit words that
/// lies inside the slave.  A burst handler must have exactly the effect of
/// the same sequence of read32/write32 calls.
struct AhbSlave {
  std::string name;
  std::uint32_t base = 0;
  std::uint32_t size = 0;  // bytes
  std::function<std::uint32_t(std::uint32_t offset)> read32;
  std::function<void(std::uint32_t offset, std::uint32_t value)> write32;
  std::function<void(std::uint32_t offset, std::uint32_t* out, std::size_t count)>
      read_burst{};
  std::function<void(std::uint32_t offset, const std::uint32_t* words,
                     std::size_t count)>
      write_burst{};
};

struct BusStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

class AhbBus {
 public:
  void attach(AhbSlave slave);

  [[nodiscard]] std::uint32_t read32(BusMaster m, std::uint32_t addr);
  void write32(BusMaster m, std::uint32_t addr, std::uint32_t value);

  /// Wide accessors issue 32-bit beats (the bus supports 32-128 bit data).
  [[nodiscard]] unsigned __int128 read128(BusMaster m, std::uint32_t addr);
  void write128(BusMaster m, std::uint32_t addr, unsigned __int128 value);

  /// `count` 32-bit beats at consecutive word addresses from `addr`.  A
  /// 4-byte-aligned burst that lies inside one slave with burst handlers
  /// is routed once and moved in one call; any other burst is the per-beat
  /// loop.  Either way the per-master stats count one access per beat.
  void read_burst(BusMaster m, std::uint32_t addr, std::uint32_t* out,
                  std::size_t count);
  void write_burst(BusMaster m, std::uint32_t addr, const std::uint32_t* words,
                   std::size_t count);

  [[nodiscard]] const BusStats& stats(BusMaster m) const {
    return stats_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] std::size_t num_slaves() const noexcept { return slaves_.size(); }
  [[nodiscard]] const AhbSlave& slave(std::size_t i) const { return slaves_.at(i); }

 private:
  AhbSlave& route(std::uint32_t addr);
  /// The slave that holds all of [addr, addr + 4*count) and has burst
  /// handlers, or nullptr when the burst must go beat by beat.
  AhbSlave* burst_slave(std::uint32_t addr, std::size_t count);

  std::vector<AhbSlave> slaves_;
  BusStats stats_[kNumMasters]{};
};

}  // namespace cofhee::chip
