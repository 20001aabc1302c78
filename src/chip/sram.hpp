// SRAM bank models.
//
// The silicon's 68 memory macros group into 8 logical coefficient-wide data
// banks (3 dual-port + 4 single-port polynomial banks + 1 single-port
// twiddle bank) plus the CM0 SRAM (paper Sections III-A and V-A).  The
// model stores one 128-bit coefficient per word, tracks per-port access
// counts (feeding the power model and the port-conflict checks), and
// enforces the structural property the architecture is built around:
// a dual-port bank sustains two accesses per cycle, a single-port bank one.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chip/config.hpp"

namespace cofhee::chip {

using u128 = unsigned __int128;

class Sram {
 public:
  Sram() = default;
  Sram(std::string name, std::size_t words, unsigned ports, unsigned read_latency)
      : name_(std::move(name)), ports_(ports), read_latency_(read_latency),
        data_(words, 0) {
    if (ports != 1 && ports != 2)
      throw std::invalid_argument("Sram: ports must be 1 or 2");
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t words() const noexcept { return data_.size(); }
  [[nodiscard]] unsigned ports() const noexcept { return ports_; }
  [[nodiscard]] bool dual_port() const noexcept { return ports_ == 2; }
  [[nodiscard]] unsigned read_latency() const noexcept { return read_latency_; }

  [[nodiscard]] u128 read(std::size_t addr) {
    bounds(addr);
    ++reads_;
    return data_[addr];
  }

  void write(std::size_t addr, u128 value) {
    bounds(addr);
    ++writes_;
    ++generation_;
    data_[addr] = value;
  }

  /// Peek/poke without access accounting (testbench/host backdoor, the
  /// moral equivalent of simulator memory preload).
  [[nodiscard]] u128 peek(std::size_t addr) const {
    bounds(addr);
    return data_[addr];
  }
  void poke(std::size_t addr, u128 value) {
    bounds(addr);
    ++generation_;
    data_[addr] = value;
  }

  /// Block access for the MDMC's word-sized datapath: `count` consecutive
  /// words, bounds-checked up front.  read_block/write_block account
  /// exactly what `count` read()/write() calls would; peek_block accounts
  /// nothing.  A write_block view is only valid until the next write.
  [[nodiscard]] std::span<const u128> peek_block(std::size_t addr,
                                                 std::size_t count) const {
    bounds_block(addr, count);
    return {data_.data() + addr, count};
  }
  std::span<const u128> read_block(std::size_t addr, std::size_t count) {
    bounds_block(addr, count);
    reads_ += count;
    return {data_.data() + addr, count};
  }
  [[nodiscard]] std::span<u128> write_block(std::size_t addr, std::size_t count) {
    bounds_block(addr, count);
    writes_ += count;
    ++generation_;
    return {data_.data() + addr, count};
  }

  /// Bus view: `count` consecutive 32-bit beats from byte offset `byte_off`
  /// (4-byte aligned, else std::invalid_argument), with the same effect and
  /// access counts as one 32-bit bus access per beat -- the bulk form of the
  /// bank's AHB slave handlers, used when a serial-link burst lies inside
  /// this bank.
  void read_words32(std::size_t byte_off, std::uint32_t* out, std::size_t count);
  void write_words32(std::size_t byte_off, const std::uint32_t* words,
                     std::size_t count);

  [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  void reset_counters() noexcept { reads_ = writes_ = 0; }

  /// Bumped by every store (write, poke, block and bus writes), never
  /// reset: a cache derived from the bank contents is stale once it moves.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

  /// Maximum word transfers this bank supports per cycle.
  [[nodiscard]] unsigned accesses_per_cycle() const noexcept { return ports_; }

 private:
  void bounds(std::size_t addr) const {
    if (addr >= data_.size())
      throw std::out_of_range("Sram " + name_ + ": address out of range");
  }
  void bounds_block(std::size_t addr, std::size_t count) const {
    if (addr > data_.size() || count > data_.size() - addr)
      throw std::out_of_range("Sram " + name_ + ": block out of range");
  }

  std::string name_;
  unsigned ports_ = 1;
  unsigned read_latency_ = 2;
  std::vector<u128> data_;
  std::uint64_t reads_ = 0, writes_ = 0;
  std::uint64_t generation_ = 0;
};

/// Move `len` words from `src` at `src_off` to `dst` at `dst_off`: source
/// word i lands at dst_off + i, or at dst_off + rev(i) when `bit_reverse`
/// (len must then be a power of two).  Contents and access counts equal one
/// read()+write() pair per word in increasing i -- also when both ranges
/// overlap inside one bank, where a later read sees an earlier write.
/// Disjoint ranges move as one block, bounds-checked before any access.
void copy_words(Sram& src, std::size_t src_off, Sram& dst, std::size_t dst_off,
                std::size_t len, bool bit_reverse);

/// The full data-memory complement of the chip.
class MemorySystem {
 public:
  explicit MemorySystem(const ChipConfig& cfg);

  [[nodiscard]] Sram& bank(Bank b) { return banks_.at(static_cast<std::size_t>(b)); }
  [[nodiscard]] const Sram& bank(Bank b) const {
    return banks_.at(static_cast<std::size_t>(b));
  }
  [[nodiscard]] std::size_t num_banks() const noexcept { return banks_.size(); }

  /// Aggregate data-memory capacity in bytes (polynomial + twiddle banks).
  [[nodiscard]] std::size_t total_bytes() const;

 private:
  std::vector<Sram> banks_;
};

}  // namespace cofhee::chip
