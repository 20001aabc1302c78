// Host interfaces: UART (8N1) and SPI mode 0 (paper Sections III-H, V-F).
//
// These are transaction-level transport models: they carry the register
// read/write framing the host driver uses (1 command byte + 4 address bytes
// + 4 data bytes per 32-bit access) and account wall-clock time from the
// line rate -- UART at a programmable baud (the silicon bring-up used an
// FTDI USB-UART at 3 Mbaud), SPI at up to 50 MHz (Section III-K's interface
// timing constraint).  The paper's points about execution mode 1 being slow
// and n >= 2^14 needing host round-trips (Section VIII-A) fall out of these
// byte counts.
// Fault injection: when a FaultInjector is attached (ChipSpec::faults via
// the service's ChipFarm), every transaction -- one register access or one
// burst frame -- consults it first.  A faulted transaction throws the typed
// error (chip/fault.hpp) before any byte moves, so SRAM is never silently
// corrupted; a sub-timeout stall simply accounts extra line seconds, which
// the service's measured per-chip costs then observe.
#pragma once

#include <cstdint>

#include "chip/ahb.hpp"
#include "chip/fault.hpp"

namespace cofhee::chip {

struct LinkStats {
  std::uint64_t bytes_tx = 0;      // host -> chip
  std::uint64_t bytes_rx = 0;      // chip -> host
  std::uint64_t transactions = 0;  // framed transactions (any kind)
  double seconds = 0.0;
};

/// Common register-access framing over a byte pipe.
class SerialLink {
 public:
  SerialLink(AhbBus& bus, BusMaster master, double bytes_per_second)
      : bus_(bus), master_(master), bps_(bytes_per_second) {}
  virtual ~SerialLink() = default;

  /// Host-side 32-bit register/memory write: 9 bytes on the wire.
  void host_write32(std::uint32_t addr, std::uint32_t value) {
    pre_transaction();
    ++stats_.transactions;
    account_tx(9);
    bus_.write32(master_, addr, value);
  }

  /// Host-side 32-bit read: 5 bytes out, 4 bytes back.
  [[nodiscard]] std::uint32_t host_read32(std::uint32_t addr) {
    pre_transaction();
    ++stats_.transactions;
    account_tx(5);
    account_rx(4);
    return bus_.read32(master_, addr);
  }

  /// Bulk payload write (burst framing: 1 cmd + 4 addr + 4 len + payload).
  /// Words land at consecutive word addresses in bus order, so a burst over
  /// a register window is byte-identical in effect to the equivalent
  /// sequence of host_write32 calls -- just one framed transaction instead
  /// of `count`, and 9 + 4*count wire bytes instead of 9*count.  This is
  /// the frame the driver's batched register writes coalesce into.  A burst
  /// inside one data bank moves in one bus call (AhbBus::write_burst).
  void host_write_burst(std::uint32_t addr, const std::uint32_t* words,
                        std::size_t count) {
    pre_transaction();
    ++stats_.transactions;
    account_tx(9 + count * 4);
    bus_.write_burst(master_, addr, words, count);
  }

  void host_read_burst(std::uint32_t addr, std::uint32_t* words, std::size_t count) {
    pre_transaction();
    ++stats_.transactions;
    account_tx(9);
    account_rx(count * 4);
    bus_.read_burst(master_, addr, words, count);
  }

  /// Compressed-upload frame (seed/delta key compression): the host ships a
  /// compact descriptor -- 1 cmd + 4 addr + 8 seed + 4 len = 17 bytes --
  /// and the chip's sequencer expands it into SRAM locally.  Only the
  /// accounting half lives here (the frame consults the fault injector and
  /// pays line time like any transaction); the caller performs the chip-side
  /// expansion and charges its cycles.
  void host_write_seed_frame(std::uint32_t addr, std::uint64_t seed) {
    (void)addr;
    (void)seed;
    pre_transaction();
    ++stats_.transactions;
    account_tx(17);
  }

  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }
  [[nodiscard]] double bytes_per_second() const noexcept { return bps_; }

  /// Attach (or detach, with nullptr) a fault injector; every transaction
  /// consults it before moving bytes.  Not owned; the caller keeps it alive
  /// for the link's lifetime (ChipFarm owns both).
  void set_fault_injector(FaultInjector* f) noexcept { fault_ = f; }

 protected:
  /// Fault hook: throws the typed fault (frame rejected, nothing moved) or
  /// charges injected stall time to the line clock.
  void pre_transaction() {
    if (fault_ == nullptr) return;
    const double stall = fault_->on_transaction();
    if (stall > 0) stats_.seconds += stall;
  }

  void account_tx(std::size_t bytes) {
    stats_.bytes_tx += bytes;
    stats_.seconds += static_cast<double>(bytes) / bps_;
  }
  void account_rx(std::size_t bytes) {
    stats_.bytes_rx += bytes;
    stats_.seconds += static_cast<double>(bytes) / bps_;
  }

 private:
  AhbBus& bus_;
  BusMaster master_;
  double bps_;
  LinkStats stats_;
  FaultInjector* fault_ = nullptr;
};

/// UART 8N1: 10 line bits per byte.
class Uart : public SerialLink {
 public:
  Uart(AhbBus& bus, double baud)
      : SerialLink(bus, BusMaster::kHostUart, baud / 10.0), baud_(baud) {}
  [[nodiscard]] double baud() const noexcept { return baud_; }

 private:
  double baud_;
};

/// SPI mode 0: 8 clocks per byte, full duplex (we model half-duplex use).
class Spi : public SerialLink {
 public:
  Spi(AhbBus& bus, double clock_hz)
      : SerialLink(bus, BusMaster::kHostSpi, clock_hz / 8.0), clock_hz_(clock_hz) {}
  [[nodiscard]] double clock_hz() const noexcept { return clock_hz_; }

 private:
  double clock_hz_;
};

}  // namespace cofhee::chip
