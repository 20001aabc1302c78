// Multiplier Data Mover and Controller (paper Sections III-B, III-G2).
//
// The MDMC decodes each command, generates operand/twiddle addresses every
// cycle, streams data between the SRAM banks and the PE with II = 1, and
// raises the op-done interrupt on completion.  This model executes the
// command's arithmetic bit-exactly against the memory contents while
// charging cycles with the calibrated structural model (DESIGN.md
// Section 3, asserted against Table V by tests):
//
//   NTT(n)   = (n/2)*log2(n)*II + stage_overhead*log2(n) + 1
//   iNTT(n)  = NTT(n) + (n + pointwise_fill) + n/dma_words_per_cycle
//   ptwise   = len + pointwise_fill + 1
//   memcpy   = len + pointwise_fill + 1
//
// II is 1 when both ping/pong NTT buffers are dual-port banks and 2
// otherwise (Section III-C: single-port operation at n >= 2^14).
//
// NTT/iNTT run the host's merged engines (poly/merged_ntt.hpp) built from
// the TW-bank ROM and INV_POLYDEG, cached per (Gpcfg::q_version(), TW-bank
// Sram::generation(), n, INV_POLYDEG value): poly::MergedNtt64 (Shoup
// twiddles, nt::simd butterflies) when q < 2^62 and every ROM word,
// INV_POLYDEG and operand word is < q, else poly::MergedNtt128 over the
// PE's Barrett reducer.  The modular pointwise ops likewise run 64-bit
// kernels when q < 2^62 and every consumed word is canonical, else the PE's
// 128-bit path (which PMUL's plain product always takes).  Cycles, power
// segments and SRAM access counts do not depend on the datapath.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "chip/config.hpp"
#include "chip/gpcfg.hpp"
#include "chip/isa.hpp"
#include "chip/pe.hpp"
#include "chip/power.hpp"
#include "chip/sram.hpp"
#include "nt/barrett.hpp"
#include "poly/merged_ntt.hpp"

namespace cofhee::chip {

struct MdmcStats {
  std::uint64_t commands = 0;
  std::uint64_t ntt_ops = 0;
  std::uint64_t intt_ops = 0;
  std::uint64_t pointwise_ops = 0;
  std::uint64_t memcpy_ops = 0;
};

class Mdmc {
 public:
  Mdmc(const ChipConfig& cfg, MemorySystem& mem, Gpcfg& gpcfg, Pe& pe,
       PowerTrace& trace)
      : cfg_(cfg), mem_(mem), gpcfg_(gpcfg), pe_(pe), trace_(trace) {}

  /// Execute one command to completion; returns the cycles consumed.
  std::uint64_t execute(const Instr& in);

  [[nodiscard]] const MdmcStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  void refresh_ring();
  [[nodiscard]] std::size_t vec_len(const Instr& in) const;
  [[nodiscard]] unsigned ntt_ii(const Instr& in) const;

  std::uint64_t exec_ntt(const Instr& in, bool inverse);
  std::uint64_t exec_pointwise(const Instr& in);
  std::uint64_t exec_memcpy(const Instr& in, bool bit_reverse);

  /// Append the NTT/iNTT power segments in the silicon's order; returns
  /// their cycles.
  std::uint64_t charge_ntt(std::size_t n, bool inverse, unsigned ii);

  /// NTT/iNTT of the operand into the destination on the cached engines.
  void run_ntt(const Instr& in, bool inverse, std::size_t n);
  void pe_pointwise(const Instr& in, std::size_t len);
  /// The 64-bit pointwise path; returns false, having changed nothing, when
  /// the command does not qualify.
  bool word_pointwise(const Instr& in, std::size_t len);

  /// The merged NTT engines for one (Q write, TW-bank contents, n,
  /// INV_POLYDEG): `word` when q < 2^62 and every ROM word and INV_POLYDEG
  /// is < q; `wide`, over the PE's reducer, built on first use.
  struct NttEngines {
    std::uint64_t q_version = ~std::uint64_t{0};
    std::uint64_t tw_generation = ~std::uint64_t{0};
    std::size_t n = 0;
    u128 inv_polydeg = 0;
    std::optional<poly::MergedNtt64> word;
    std::optional<poly::MergedNtt128> wide;
  };
  /// The engines for `n`, rebuilt when Q, the TW bank or INV_POLYDEG was
  /// written; std::out_of_range when the ROM is shorter than n.
  NttEngines& ntt_engines(std::size_t n);
  /// Narrow `words` into `out`; false when a word is >= q.
  bool narrow(std::span<const u128> words, std::vector<std::uint64_t>& out) const;

  ChipConfig cfg_;
  MemorySystem& mem_;
  Gpcfg& gpcfg_;
  Pe& pe_;
  PowerTrace& trace_;
  MdmcStats stats_;
  std::uint64_t ring_version_ = ~std::uint64_t{0};
  bool word_ring_ = false;  // 2 <= q < 2^62
  nt::Barrett64 red64_;
  NttEngines ntt_;
  std::vector<std::uint64_t> a64_, b64_;  // operand scratch
};

}  // namespace cofhee::chip
