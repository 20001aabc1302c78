#include <algorithm>
#include <array>

#include "driver/host_driver.hpp"

#include <stdexcept>

#include "chip/gpcfg.hpp"
#include "nt/primes.hpp"
#include "poly/sampler.hpp"

namespace cofhee::driver {

using chip::Gpcfg;
using chip::MemoryMap;
using chip::Reg;

namespace {

chip::SerialLink& link_of(CofheeChip& chip, Link link) {
  if (link == Link::kUart) return chip.uart();
  return chip.spi();
}

std::uint32_t bank_base(Bank b) {
  return MemoryMap::kDataSramBase +
         static_cast<std::uint32_t>(b) * MemoryMap::kBankStride;
}

}  // namespace

HostDriver::HostDriver(CofheeChip& chip, ExecMode mode, Link link)
    : chip_(chip), mode_(mode), link_(link) {}

void HostDriver::invalidate_twiddle_cache() noexcept {
  auto& tag = chip_.twiddle_tag();
  if (tag.valid) {
    tag.valid = false;
    ++tag.invalidations;
  }
}

double HostDriver::configure_ring(u128 q, std::size_t n, u128 psi, bool timed) {
  n_ = n;
  q_ = q;
  auto& tag = chip_.twiddle_tag();
  // Cross-session twiddle-ROM cache: sessions come and go (the evaluator
  // builds a fresh driver per call) but the chip's SRAM and ring registers
  // persist.  When the chip already holds exactly this (q, n, psi), the
  // whole timed programming sequence below is redundant -- skip it, and
  // with it the host-side ROM and n^-1 computation.
  if (timed && twiddle_cache_ && tag.valid && tag.q == q && tag.n == n &&
      tag.psi == psi) {
    ++tag.hits;
    ++transport_.twiddle_cache_hits;
    return 0.0;
  }

  // psi^rev(i), one word per coeff, and n^-1.  A u64 ring computes them over
  // Barrett64 and widens the words: the same residues, without the 128-bit
  // reduction.
  std::vector<u128> rom;
  u128 n_inv = 0;
  if (q < (u128{1} << 62) && psi < q) {
    const nt::Barrett64 ring(static_cast<nt::u64>(q));
    const auto narrow = poly::twiddle_rom(ring, n, static_cast<nt::u64>(psi));
    rom.assign(narrow.begin(), narrow.end());
    n_inv = ring.inv(static_cast<nt::u64>(n));
  } else {
    const nt::Barrett128 ring(q);
    rom = poly::twiddle_rom(ring, n, psi);
    n_inv = ring.inv(static_cast<u128>(n));
  }
  if (!timed) {
    auto& gp = chip_.gpcfg();
    gp.set_q(q);
    gp.set_n(n);
    gp.set_inv_polydeg(n_inv);
    chip_.load_coeffs(Bank::kTw, 0, rom);
    // The backdoor leaves the chip in the same resident state as a timed
    // programming pass, so record it (no hit/miss accounting: nothing was
    // skipped and nothing traveled).
    tag.valid = true;
    tag.q = q;
    tag.n = n;
    tag.psi = psi;
    return 0.0;
  }

  if (tag.valid) ++tag.invalidations;
  tag.valid = false;  // a fault mid-programming must not leave a stale hit
  ++tag.misses;

  // Timed path: the same programming sequence over the serial link, the way
  // the bring-up host does it (Table II) -- Q, BARRETTCTL1/2, FHECTL1 and
  // INV_POLYDEG register writes plus the twiddle-ROM burst.  This is the
  // per-tower ring-reconfiguration transport an EvalMult session pays.
  auto& lk = link_of(chip_, link_);
  const double before = lk.stats().seconds;
  const auto reg_addr = [](Reg r) {
    return MemoryMap::kGpcfgBase + static_cast<std::uint32_t>(r);
  };
  const auto write_wide = [&](Reg base, u128 v, unsigned words) {
    for (unsigned w = 0; w < words; ++w) {
      lk.host_write32(reg_addr(base) + w * 4, static_cast<std::uint32_t>(v));
      v >>= 32;
    }
  };
  const chip::BarrettCtlWords bc = chip::barrett_ctl_words(q);
  if (batching_) {
    // Burst framing over the consecutive register windows: Q0..Q3,
    // BARRETTCTL1 + BARRETTCTL2_0..4 (six consecutive words at 0x90..0xA4),
    // and INV_POLYDEG0..3 each collapse into one framed transaction.  Bus
    // write order inside a burst matches the unbatched sequence, so the
    // register state is byte-identical.
    std::array<std::uint32_t, 4> qw{};
    u128 v = q;
    for (auto& w : qw) {
      w = static_cast<std::uint32_t>(v);
      v >>= 32;
    }
    lk.host_write_burst(reg_addr(Reg::kQ0), qw.data(), qw.size());
    std::array<std::uint32_t, 6> bw{bc.ctl1, bc.ctl2[0], bc.ctl2[1], bc.ctl2[2],
                                    bc.ctl2[3], bc.ctl2[4]};
    lk.host_write_burst(reg_addr(Reg::kBarrettCtl1), bw.data(), bw.size());
    lk.host_write32(reg_addr(Reg::kFheCtl1), nt::log2_exact(n));
    std::array<std::uint32_t, 4> iw{};
    v = n_inv;
    for (auto& w : iw) {
      w = static_cast<std::uint32_t>(v);
      v >>= 32;
    }
    lk.host_write_burst(reg_addr(Reg::kInvPolyDeg0), iw.data(), iw.size());
    transport_.batched_writes += qw.size() + bw.size() + iw.size();
  } else {
    write_wide(Reg::kQ0, q, 4);
    // Host software derives the Barrett constants and programs them alongside
    // Q (the bus write path does not, unlike the Gpcfg::set_q backdoor).
    lk.host_write32(reg_addr(Reg::kBarrettCtl1), bc.ctl1);
    for (std::uint32_t w = 0; w < bc.ctl2.size(); ++w)
      lk.host_write32(reg_addr(Reg::kBarrettCtl2_0) + w * 4, bc.ctl2[w]);
    lk.host_write32(reg_addr(Reg::kFheCtl1), nt::log2_exact(n));
    write_wide(Reg::kInvPolyDeg0, n_inv, 4);
  }

  std::vector<std::uint32_t> words(rom.size() * 4);
  for (std::size_t i = 0; i < rom.size(); ++i) {
    u128 v = rom[i];
    for (unsigned w = 0; w < 4; ++w) {
      words[i * 4 + w] = static_cast<std::uint32_t>(v);
      v >>= 32;
    }
  }
  lk.host_write_burst(bank_base(Bank::kTw), words.data(), words.size());
  tag.valid = true;
  tag.q = q;
  tag.n = n;
  tag.psi = psi;
  const double spent = lk.stats().seconds - before;
  trace_link("link.configure", spent, static_cast<double>(words.size()));
  return spent;
}

void HostDriver::probe() {
  // One write + one readback of an SP3 scratch word: the cheapest
  // round-trip that exercises the link, the bus and the SRAM macro.  The
  // pattern flips per probe so a stuck-at answer cannot pass twice.
  auto& lk = link_of(chip_, link_);
  const std::uint32_t addr = bank_base(Bank::kSp3);
  const std::uint32_t pattern = 0xC0F4EE00u | (probe_nonce_++ & 0xFFu);
  const double before = lk.stats().seconds;
  lk.host_write32(addr, pattern);
  const std::uint32_t got = lk.host_read32(addr);
  trace_link("link.probe", lk.stats().seconds - before, 2);
  if (got != pattern)
    throw chip::ChipFaultError("probe readback mismatch: wrote " +
                               std::to_string(pattern) + ", read " +
                               std::to_string(got));
}

double HostDriver::load_polynomial(Bank bank, std::size_t offset,
                                   std::span<const u128> coeffs) {
  auto& lk = link_of(chip_, link_);
  const double before = lk.stats().seconds;
  std::vector<std::uint32_t> words(coeffs.size() * 4);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    u128 v = coeffs[i];
    for (unsigned w = 0; w < 4; ++w) {
      words[i * 4 + w] = static_cast<std::uint32_t>(v);
      v >>= 32;
    }
  }
  lk.host_write_burst(bank_base(bank) + static_cast<std::uint32_t>(offset) * 16,
                      words.data(), words.size());
  const double spent = lk.stats().seconds - before;
  trace_link("link.write", spent, static_cast<double>(words.size()));
  return spent;
}

double HostDriver::load_polynomial_seeded(Bank bank, std::size_t offset,
                                          std::size_t count, std::uint64_t seed,
                                          std::size_t tower,
                                          std::uint64_t* expand_cycles) {
  if (expand_cycles != nullptr) *expand_cycles = 0;
  if (n_ == 0) throw std::logic_error("HostDriver: configure_ring first");
  // Both sides derive the coefficients from the same definition; here it
  // plays the chip sequencer's role (the backdoor store stands in for the
  // PRNG-fill datapath).
  const auto expanded =
      poly::expand_uniform(seed, tower, count, static_cast<std::uint64_t>(q_));
  std::vector<u128> wide(expanded.begin(), expanded.end());
  if (!key_compression_) return load_polynomial(bank, offset, wide);
  auto& lk = link_of(chip_, link_);
  const double before = lk.stats().seconds;
  // One 17-byte seed frame instead of the full 9 + 16·count-byte burst.
  lk.host_write_seed_frame(
      bank_base(bank) + static_cast<std::uint32_t>(offset) * 16, seed);
  chip_.load_coeffs(bank, offset, wide);
  const std::uint64_t words = static_cast<std::uint64_t>(count) * 4;
  const std::uint64_t cycles = words * kSeedExpandCyclesPerWord;
  chip_.charge_cycles(cycles);
  if (expand_cycles != nullptr) *expand_cycles = cycles;
  transport_.key_bytes_saved += (9 + words * 4) - 17;
  const double spent = lk.stats().seconds - before;
  trace_link("link.write.seed", spent, static_cast<double>(words));
  return spent;
}

std::uint64_t HostDriver::copy_polynomial(Bank src, std::size_t src_offset, Bank dst,
                                          std::size_t dst_offset, std::size_t count) {
  // Foreground transfer: window 0 means nothing hides the copy, every DMA
  // cycle is charged -- still orders of magnitude cheaper than the serial
  // link for the same words.
  const std::uint64_t cycles =
      stage({src, static_cast<std::uint32_t>(src_offset)},
            {dst, static_cast<std::uint32_t>(dst_offset)}, count, 0);
  chip_.charge_cycles(cycles);
  return cycles;
}

std::vector<u128> HostDriver::read_polynomial(Bank bank, std::size_t offset,
                                              std::size_t count, double* io_seconds) {
  auto& lk = link_of(chip_, link_);
  const double before = lk.stats().seconds;
  std::vector<std::uint32_t> words(count * 4);
  lk.host_read_burst(bank_base(bank) + static_cast<std::uint32_t>(offset) * 16,
                     words.data(), words.size());
  std::vector<u128> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    u128 v = 0;
    for (int w = 3; w >= 0; --w) v = (v << 32) | words[i * 4 + static_cast<unsigned>(w)];
    out[i] = v;
  }
  trace_link("link.read", lk.stats().seconds - before,
             static_cast<double>(words.size()));
  if (io_seconds != nullptr) *io_seconds = lk.stats().seconds - before;
  return out;
}

ExecReport HostDriver::run(std::span<const Instr> program) {
  switch (mode_) {
    case ExecMode::kDirect: return run_direct(program);
    case ExecMode::kFifo: return run_fifo(program);
    case ExecMode::kCm0: return run_cm0(program);
  }
  throw std::logic_error("HostDriver: bad mode");
}

ExecReport HostDriver::run_direct(std::span<const Instr> program) {
  // Mode 1: each command is four register writes plus a trigger write and a
  // completion poll over the serial link -- the interface latency dominates.
  ExecReport rep;
  auto& lk = link_of(chip_, link_);
  const double before = lk.stats().seconds;
  for (const auto& in : program) {
    const auto words = chip::encode(in);
    if (batching_) {
      // The four COMMANDFIFO words are consecutive registers: one burst
      // frame replaces four write transactions.  Burst writes land in bus
      // order, so the FIFO push (triggered by the COMMANDFIFO3 write) sees
      // the exact same register sequence as the unbatched path.
      lk.host_write_burst(MemoryMap::kGpcfgBase +
                              static_cast<std::uint32_t>(Reg::kCommandFifo0),
                          words.data(), words.size());
      transport_.batched_writes += words.size();
    } else {
      for (unsigned w = 0; w < 4; ++w)
        lk.host_write32(MemoryMap::kGpcfgBase +
                            static_cast<std::uint32_t>(Reg::kCommandFifo0) + w * 4,
                        words[w]);
    }
    // FHECTL2 trigger + IRQ poll.
    lk.host_write32(MemoryMap::kGpcfgBase + static_cast<std::uint32_t>(Reg::kFheCtl2),
                    1);
    rep.compute_cycles += chip_.run_fifo();
    (void)lk.host_read32(MemoryMap::kGpcfgBase +
                         static_cast<std::uint32_t>(Reg::kIrqStatus));
    ++rep.commands;
  }
  rep.io_seconds = lk.stats().seconds - before;
  rep.compute_ms =
      static_cast<double>(rep.compute_cycles) * chip_.config().cycle_ns() * 1e-6;
  return rep;
}

ExecReport HostDriver::run_fifo(std::span<const Instr> program) {
  ExecReport rep;
  std::size_t i = 0;
  while (i < program.size()) {
    while (i < program.size() && !chip_.fifo().full()) {
      chip_.fifo().push(program[i]);
      ++i;
    }
    rep.compute_cycles += chip_.run_fifo();
  }
  rep.commands = program.size();
  rep.compute_ms =
      static_cast<double>(rep.compute_cycles) * chip_.config().cycle_ns() * 1e-6;
  return rep;
}

ExecReport HostDriver::run_cm0(std::span<const Instr> program) {
  // Mode 3: firmware pushes each encoded command into the COMMANDFIFO
  // register window, then sleeps on WFI until the queue-empty interrupt.
  // Programs longer than the FIFO depth run as successive firmware batches
  // (real firmware re-fills the queue after each interrupt).
  if (program.size() > chip_.config().cmd_fifo_depth) {
    ExecReport total;
    for (std::size_t i = 0; i < program.size(); i += chip_.config().cmd_fifo_depth) {
      const std::size_t count =
          std::min(chip_.config().cmd_fifo_depth, program.size() - i);
      total += run_cm0(program.subspan(i, count));
    }
    total.compute_ms =
        static_cast<double>(total.compute_cycles) * chip_.config().cycle_ns() * 1e-6;
    return total;
  }
  ExecReport rep;
  chip::Cm0Asm as;
  const std::uint32_t fifo0 =
      MemoryMap::kGpcfgBase + static_cast<std::uint32_t>(Reg::kCommandFifo0);
  as.ldr_lit(4, fifo0);  // r4 = &COMMANDFIFO[0]
  for (const auto& in : program) {
    const auto words = chip::encode(in);
    for (unsigned w = 0; w < 4; ++w) {
      as.ldr_lit(0, words[w]);
      as.str_imm(0, 4, w * 4);
    }
  }
  as.wfi();
  as.bkpt();

  const auto image = as.assemble();
  if (image.size() * 4 > chip_.config().cm0_sram_bytes)
    throw std::runtime_error("HostDriver: firmware exceeds CM0 SRAM");
  for (std::size_t w = 0; w < image.size(); ++w)
    chip_.bus().write32(chip::BusMaster::kHostSpi,
                        MemoryMap::kCm0SramBase + static_cast<std::uint32_t>(w) * 4,
                        image[w]);

  chip::Cm0 cm0(chip_.bus());
  cm0.reset();
  auto st = cm0.run(10'000'000);
  if (st != chip::Cm0Stop::kWfi)
    throw std::runtime_error("HostDriver: firmware did not reach WFI");
  rep.compute_cycles += chip_.run_fifo();  // queue drained, IRQ raised
  cm0.deliver_irq();
  st = cm0.run(10'000);
  if (st != chip::Cm0Stop::kBkpt)
    throw std::runtime_error("HostDriver: firmware did not finish");
  rep.cm0_cycles = cm0.cycles();
  rep.commands = program.size();
  rep.compute_ms =
      static_cast<double>(rep.compute_cycles) * chip_.config().cycle_ns() * 1e-6;
  return rep;
}

std::uint64_t HostDriver::stage(const MemRef& src, const MemRef& dst, std::size_t len,
                                std::uint64_t window) {
  return chip_.dma().background_transfer(src, dst, len, window);
}

ExecReport HostDriver::ntt(const MemRef& x, const MemRef& dst) {
  const Instr in{Opcode::kNtt, x, {}, dst, 0, 0};
  return run(std::span<const Instr>(&in, 1));
}

ExecReport HostDriver::intt(const MemRef& x, const MemRef& dst) {
  const Instr in{Opcode::kIntt, x, {}, dst, 0, 0};
  return run(std::span<const Instr>(&in, 1));
}

ExecReport HostDriver::poly_mul() {
  // Algorithm 2 with operands A at SP0, B at SP1; product to SP2.
  // Staging: A -> DP0 (foreground, first use), NTT to DP1; B -> DP0 hidden
  // under the first NTT; Hadamard into DP0; iNTT DP0 -> DP1; result
  // offloaded to SP2 (hidden under nothing -- charged).
  const std::size_t n = n_;
  if (n == 0) throw std::logic_error("HostDriver: configure_ring first");
  ExecReport rep;

  std::uint64_t resid = stage({Bank::kSp0, 0}, {Bank::kDp0, 0}, n, 0);
  chip_.charge_cycles(resid);
  rep.compute_cycles += resid;

  ExecReport r1 = ntt({Bank::kDp0, 0}, {Bank::kDp1, 0});  // A'
  rep += r1;
  resid = stage({Bank::kSp1, 0}, {Bank::kDp0, 0}, n, r1.compute_cycles);
  chip_.charge_cycles(resid);
  rep.compute_cycles += resid;

  ExecReport r2 = ntt({Bank::kDp0, 0}, {Bank::kDp2, 0});  // B'
  rep += r2;

  const Instr had{Opcode::kPModMul, {Bank::kDp1, 0}, {Bank::kDp2, 0}, {Bank::kDp0, 0},
                  static_cast<std::uint32_t>(n), 0};
  rep += run(std::span<const Instr>(&had, 1));

  ExecReport r3 = intt({Bank::kDp0, 0}, {Bank::kDp1, 0});
  rep += r3;

  // Result offload to SP2 overlaps the tail of the iNTT / the next queued
  // command; the silicon latency measurement ends at the op-done interrupt.
  resid = stage({Bank::kDp1, 0}, {Bank::kSp2, 0}, n, r3.compute_cycles);
  chip_.charge_cycles(resid);
  rep.compute_cycles += resid;

  rep.compute_ms =
      static_cast<double>(rep.compute_cycles) * chip_.config().cycle_ns() * 1e-6;
  return rep;
}

ExecReport HostDriver::ciphertext_mul() {
  // Algorithm 3 on one tower.  Inputs A0->SP0, A1->SP1, B0->SP2, B1->SP3.
  // Bank slots: each bank holds bank_words / n polynomial slots; slot 1 of
  // the SP banks is scratch for NTT-domain copies.
  const std::size_t n = n_;
  if (n == 0) throw std::logic_error("HostDriver: configure_ring first");
  const auto len = static_cast<std::uint32_t>(n);
  const std::uint32_t s1 = static_cast<std::uint32_t>(n);  // slot-1 offset
  if (2 * n > chip_.config().bank_words)
    throw std::runtime_error("HostDriver: ciphertext_mul needs 2 slots per bank");
  ExecReport rep;
  auto charge = [&](std::uint64_t c) {
    chip_.charge_cycles(c);
    rep.compute_cycles += c;
  };

  // B0' = NTT(B0)            (Alg. 3 line 1)
  charge(stage({Bank::kSp2, 0}, {Bank::kDp0, 0}, n, 0));
  ExecReport r = ntt({Bank::kDp0, 0}, {Bank::kDp1, 0});
  rep += r;
  // A0' = NTT(A0)            (line 2); stage hidden under the previous NTT
  charge(stage({Bank::kSp0, 0}, {Bank::kDp0, 0}, n, r.compute_cycles));
  r = ntt({Bank::kDp0, 0}, {Bank::kDp2, 0});
  rep += r;
  // Keep an NTT-domain copy of B0' (needed again at line 10) in SP2 slot1,
  // hidden under the NTT that just ran.
  charge(stage({Bank::kDp1, 0}, {Bank::kSp2, s1}, n, r.compute_cycles));

  // Y0' = A0' . B0'          (line 3) -> DP0
  const Instr had0{Opcode::kPModMul, {Bank::kDp2, 0}, {Bank::kDp1, 0},
                   {Bank::kDp0, 0}, len, 0};
  r = run(std::span<const Instr>(&had0, 1));
  rep += r;
  // Y0 = iNTT(Y0')           (line 4) -> DP1, offload to SP0 slot0
  r = intt({Bank::kDp0, 0}, {Bank::kDp1, 0});
  rep += r;
  charge(stage({Bank::kDp1, 0}, {Bank::kSp0, 0}, n, r.compute_cycles));

  // B1' = NTT(B1)            (line 5)
  charge(stage({Bank::kSp3, 0}, {Bank::kDp0, 0}, n, 0));
  r = ntt({Bank::kDp0, 0}, {Bank::kDp1, 0});
  rep += r;

  // Y01' = A0' . B1'         (line 6) -> SP2 slot0 scratch (A0' in DP2)
  const Instr had01{Opcode::kPModMul, {Bank::kDp2, 0}, {Bank::kDp1, 0},
                    {Bank::kSp2, 0}, len, 0};
  r = run(std::span<const Instr>(&had01, 1));
  rep += r;

  // A1' = NTT(A1)            (line 7)
  charge(stage({Bank::kSp1, 0}, {Bank::kDp0, 0}, n, r.compute_cycles));
  r = ntt({Bank::kDp0, 0}, {Bank::kDp2, 0});  // DP2 now A1' (A0' copy in SP0 slot1)
  rep += r;

  // Y2' = A1' . B1'          (line 8): B1' in DP1
  const Instr had2{Opcode::kPModMul, {Bank::kDp2, 0}, {Bank::kDp1, 0},
                   {Bank::kDp0, 0}, len, 0};
  r = run(std::span<const Instr>(&had2, 1));
  rep += r;
  // Y2 = iNTT(Y2')           (line 9) -> DP1, offload to SP2 slot... Y2 out
  r = intt({Bank::kDp0, 0}, {Bank::kDp1, 0});
  rep += r;
  charge(stage({Bank::kDp1, 0}, {Bank::kSp1, s1}, n, r.compute_cycles));  // park Y2

  // Y10' = A1' . B0'         (line 10): B0' copy from SP2 slot1
  const Instr had10{Opcode::kPModMul, {Bank::kDp2, 0}, {Bank::kSp2, s1},
                    {Bank::kDp0, 0}, len, 0};
  r = run(std::span<const Instr>(&had10, 1));
  rep += r;
  // Y1' = Y01' + Y10'        (line 11): Y01' in SP2 slot0
  const Instr add1{Opcode::kPModAdd, {Bank::kDp0, 0}, {Bank::kSp2, 0},
                   {Bank::kDp0, 0}, len, 0};
  r = run(std::span<const Instr>(&add1, 1));
  rep += r;
  // Y1 = iNTT(Y1')           (line 12) -> DP1, offload to SP1 slot0
  r = intt({Bank::kDp0, 0}, {Bank::kDp1, 0});
  rep += r;
  charge(stage({Bank::kDp1, 0}, {Bank::kSp1, 0}, n, r.compute_cycles));
  // Y2 from park -> SP2 slot0
  charge(stage({Bank::kSp1, s1}, {Bank::kSp2, 0}, n, 0));

  rep.compute_ms =
      static_cast<double>(rep.compute_cycles) * chip_.config().cycle_ns() * 1e-6;
  return rep;
}

}  // namespace cofhee::driver
