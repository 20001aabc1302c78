// Event-energy power model (paper Section VI-A / Table V).
//
// Every MDMC/DMA activity appends a PowerSegment -- a span of cycles with
// homogeneous per-cycle event rates (e.g. "4096 butterfly-issue cycles" or
// "22 pipeline-fill cycles").  Average power is total energy over total
// time; peak power is the highest per-cycle power across segments, which
// reproduces the Table V observation that NTT (forward butterflies + DMA
// staging active) peaks higher than iNTT's average.
//
// The trace is bounded: append() folds each segment into running totals
// (energy, cycles, peak) in append order, and only the most recent
// kWindow segments are kept for inspection.  A chip serving requests
// forever holds a fixed-size trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chip/config.hpp"

namespace cofhee::chip {

/// Event counts for one homogeneous span of cycles.
struct PowerSegment {
  std::uint64_t cycles = 0;
  std::uint64_t mult_fwd = 0;    // forward-dataflow 128-bit multiplies
  std::uint64_t mult_inv = 0;    // inverse-dataflow multiplies
  std::uint64_t adds = 0;
  std::uint64_t subs = 0;
  std::uint64_t sram_reads = 0;  // 128-bit data-bank accesses
  std::uint64_t sram_writes = 0;
  std::uint64_t twiddle_reads = 0;
  std::uint64_t dma_words = 0;         // dedicated DMA passes
  bool dma_concurrent = false;         // background staging active
  const char* label = "";              // static storage (literal or opcode name)
};

struct PowerReport {
  double avg_mw = 0;
  double peak_mw = 0;
  double energy_uj = 0;
  std::uint64_t cycles = 0;
};

class PowerTrace {
 public:
  PowerTrace() = default;
  explicit PowerTrace(EnergyTable table, double cycle_ns)
      : table_(table), cycle_ns_(cycle_ns) {}

  /// Most segments segments() ever holds.
  static constexpr std::size_t kWindow = 1024;

  void clear();
  void append(const PowerSegment& seg);

  /// The most recent segments (at most kWindow), oldest first.  The report
  /// covers every segment appended since the last clear().
  [[nodiscard]] const std::vector<PowerSegment>& segments() const noexcept {
    return window_;
  }

  /// Energy of one segment in picojoules.
  [[nodiscard]] double segment_energy_pj(const PowerSegment& s) const;

  /// Mean per-cycle power of one segment in milliwatts.
  [[nodiscard]] double segment_power_mw(const PowerSegment& s) const;

  [[nodiscard]] PowerReport report() const;

 private:
  EnergyTable table_{};
  double cycle_ns_ = 4.0;
  double total_pj_ = 0;
  std::uint64_t cycles_ = 0;
  double peak_mw_ = 0;
  std::vector<PowerSegment> window_;
};

}  // namespace cofhee::chip
