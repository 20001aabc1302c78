#include "chip/mdmc.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "nt/primes.hpp"
#include "nt/simd.hpp"

namespace cofhee::chip {

void Mdmc::refresh_ring() {
  if (ring_version_ != gpcfg_.q_version()) {
    const u128 q = gpcfg_.q();
    pe_.set_modulus(q);
    word_ring_ = q < (u128{1} << 62);  // q >= 2: set_modulus checked it
    if (word_ring_) red64_ = nt::Barrett64(static_cast<std::uint64_t>(q));
    ring_version_ = gpcfg_.q_version();
  }
}

std::size_t Mdmc::vec_len(const Instr& in) const {
  const std::size_t len = in.len != 0 ? in.len : gpcfg_.n();
  if (len == 0 || len > cfg_.bank_words)
    throw std::invalid_argument("Mdmc: bad vector length");
  return len;
}

unsigned Mdmc::ntt_ii(const Instr& in) const {
  // II = 1 requires simultaneous fetch of two coefficients per cycle, i.e.
  // dual-port ping and pong buffers (Section III-A).  Degraded single-port
  // operation (n >= 2^14, or the dual_port_compute=false ablation) halves
  // the butterfly issue rate.
  const bool dp = cfg_.dual_port_compute && mem_.bank(in.x.bank).dual_port() &&
                  mem_.bank(in.dst.bank).dual_port();
  return dp ? 1u : 2u;
}

std::uint64_t Mdmc::execute(const Instr& in) {
  refresh_ring();
  ++stats_.commands;
  switch (in.op) {
    case Opcode::kNtt:
      ++stats_.ntt_ops;
      return exec_ntt(in, /*inverse=*/false);
    case Opcode::kIntt:
      ++stats_.intt_ops;
      return exec_ntt(in, /*inverse=*/true);
    case Opcode::kMemCpy:
      ++stats_.memcpy_ops;
      return exec_memcpy(in, /*bit_reverse=*/false);
    case Opcode::kMemCpyR:
      ++stats_.memcpy_ops;
      return exec_memcpy(in, /*bit_reverse=*/true);
    default:
      ++stats_.pointwise_ops;
      return exec_pointwise(in);
  }
}

std::uint64_t Mdmc::exec_ntt(const Instr& in, bool inverse) {
  const std::size_t n = gpcfg_.n();
  if (in.len != 0 && in.len != n)
    throw std::invalid_argument("Mdmc: NTT length must match the N register");
  if (!nt::is_power_of_two(n)) throw std::invalid_argument("Mdmc: N not a power of 2");
  const unsigned ii = ntt_ii(in);
  run_ntt(in, inverse, n);
  const std::uint64_t cycles = cfg_.cmd_issue_cycles + charge_ntt(n, inverse, ii);
  gpcfg_.raise_irq(kIrqOpDone);
  return cycles;
}

std::uint64_t Mdmc::charge_ntt(std::size_t n, bool inverse, unsigned ii) {
  const unsigned logn = nt::log2_exact(n);
  const unsigned radix_speedup = cfg_.num_pe;  // Section VIII-A scaling knob
  std::uint64_t cycles = 0;
  const auto charge = [&](const PowerSegment& seg) {
    trace_.append(seg);
    cycles += seg.cycles;
  };

  if (inverse) {
    // The mirror pass streams the ROM through the DMA to derive inverse
    // twiddles (Section VIII-B).
    PowerSegment mirror;
    mirror.cycles = n / cfg_.dma_words_per_cycle / radix_speedup;
    mirror.dma_words = n / cfg_.dma_words_per_cycle;
    mirror.label = "intt-twiddle-mirror";
    charge(mirror);
  }
  // Background staging of the next polynomial (Section III-F) overlaps the
  // first stage only -- an n-word burst at 8 words/cycle fits well inside
  // one stage's n/2 butterfly window.  That stage is the peak-power window
  // the oscilloscope sees (Table V peak > steady-state butterfly power).
  const std::uint64_t butterflies = n / 2;
  for (unsigned stage = 0; stage < logn; ++stage) {
    PowerSegment seg;
    seg.cycles = butterflies * ii / radix_speedup;
    if (inverse) {
      seg.mult_inv = butterflies;
    } else {
      seg.mult_fwd = butterflies;
    }
    seg.adds = butterflies;
    seg.subs = butterflies;
    seg.sram_reads = 2 * butterflies;
    seg.sram_writes = 2 * butterflies;
    seg.twiddle_reads = butterflies;
    seg.dma_concurrent = cfg_.dma_background && stage == 0;
    seg.label = inverse ? "intt-stage" : "ntt-stage";
    charge(seg);
    // Stage reconfiguration + pipeline fill/drain.
    PowerSegment fill;
    fill.cycles = cfg_.stage_overhead;
    fill.label = "stage-overhead";
    charge(fill);
  }
  if (inverse) {
    // Trailing CMODMUL by INV_POLYDEG.
    PowerSegment scale;
    scale.cycles = (n + cfg_.pointwise_fill) / radix_speedup;
    scale.mult_inv = n;
    scale.sram_reads = n;
    scale.sram_writes = n;
    scale.label = "intt-scale";
    charge(scale);
  }
  return cycles;
}

bool Mdmc::narrow(std::span<const u128> words, std::vector<std::uint64_t>& out) const {
  const u128 q = red64_.modulus();
  out.resize(words.size());
  bool canonical = true;
  for (std::size_t i = 0; i < words.size(); ++i) {
    canonical &= words[i] < q;
    out[i] = static_cast<std::uint64_t>(words[i]);
  }
  return canonical;
}

Mdmc::NttEngines& Mdmc::ntt_engines(std::size_t n) {
  const Sram& tw = mem_.bank(Bank::kTw);
  const u128 ninv = gpcfg_.inv_polydeg();
  NttEngines& e = ntt_;
  if (e.q_version == gpcfg_.q_version() && e.tw_generation == tw.generation() &&
      e.n == n && e.inv_polydeg == ninv)
    return e;
  const auto rom = tw.peek_block(0, n);
  e = NttEngines{gpcfg_.q_version(), tw.generation(), n, ninv, {}, {}};
  std::vector<std::uint64_t> rom64;
  if (word_ring_ && ninv < red64_.modulus() && narrow(rom, rom64))
    e.word.emplace(red64_, std::move(rom64), static_cast<std::uint64_t>(ninv));
  return e;
}

void Mdmc::run_ntt(const Instr& in, bool inverse, std::size_t n) {
  // The silicon ping-pongs between the two dual-port banks stage by stage;
  // the model transforms a copy of the operand and charges the same memory
  // traffic: the operand fetch, on the forward transform one ROM read per
  // butterfly group (words 1 .. n-1), and the result store.  The mirror
  // pass's inverse twiddles are charged as DMA words by charge_ntt.
  Sram& src = mem_.bank(in.x.bank);
  Sram& dst = mem_.bank(in.dst.bank);
  Sram& tw = mem_.bank(Bank::kTw);
  const auto x = src.peek_block(in.x.offset, n);
  (void)dst.peek_block(in.dst.offset, n);  // bounds-check before any write
  NttEngines& e = ntt_engines(n);
  src.read_block(in.x.offset, n);
  if (!inverse) tw.read_block(1, n - 1);

  const auto run = [&](const auto& eng, auto& words) {
    if (inverse) {
      eng.inverse(words);
    } else {
      eng.forward(words);
    }
    std::copy(words.begin(), words.end(), dst.write_block(in.dst.offset, n).begin());
  };
  if (e.word && narrow(x, a64_)) {
    run(*e.word, a64_);
    return;
  }
  if (!e.wide) {
    const auto rom = tw.peek_block(0, n);
    e.wide.emplace(pe_.ring(), std::vector<u128>(rom.begin(), rom.end()), e.inv_polydeg);
  }
  poly::Coeffs<u128> words(x.begin(), x.end());
  run(*e.wide, words);
}

std::uint64_t Mdmc::exec_pointwise(const Instr& in) {
  const std::size_t len = vec_len(in);
  if (!word_pointwise(in, len)) pe_pointwise(in, len);

  PowerSegment seg;
  seg.cycles = len + cfg_.pointwise_fill;
  seg.sram_writes = len;
  seg.label = opcode_name(in.op).data();
  switch (in.op) {
    case Opcode::kPModAdd:
      seg.adds = len;
      seg.sram_reads = 2 * len;
      break;
    case Opcode::kPModSub:
      seg.subs = len;
      seg.sram_reads = 2 * len;
      break;
    case Opcode::kPModMul:
    case Opcode::kPMul:
      seg.mult_fwd = len;
      seg.sram_reads = 2 * len;
      break;
    case Opcode::kPModSqr:
      seg.mult_fwd = len;
      seg.sram_reads = len;
      break;
    case Opcode::kCModMul:
      seg.mult_inv = len;  // constant operand: low toggling datapath
      seg.sram_reads = len;
      break;
    default:
      break;
  }
  trace_.append(seg);
  gpcfg_.raise_irq(kIrqOpDone);
  return seg.cycles + cfg_.cmd_issue_cycles;
}

void Mdmc::pe_pointwise(const Instr& in, std::size_t len) {
  Sram& xs = mem_.bank(in.x.bank);
  Sram& ys = mem_.bank(in.y.bank);
  Sram& ds = mem_.bank(in.dst.bank);
  const u128 c = gpcfg_.cmod_const();
  for (std::size_t i = 0; i < len; ++i) {
    const u128 a = xs.read(in.x.offset + i);
    u128 r = 0;
    switch (in.op) {
      case Opcode::kPModAdd:
        r = pe_.mod_add(a, ys.read(in.y.offset + i));
        break;
      case Opcode::kPModSub:
        r = pe_.mod_sub(a, ys.read(in.y.offset + i));
        break;
      case Opcode::kPModMul:
        r = pe_.mod_mul(a, ys.read(in.y.offset + i));
        break;
      case Opcode::kPModSqr:
        r = pe_.mod_mul(a, a);
        break;
      case Opcode::kCModMul:
        r = pe_.mod_mul(a, c);
        break;
      case Opcode::kPMul:
        r = pe_.mul_plain(a, ys.read(in.y.offset + i));
        break;
      default:
        throw std::logic_error("Mdmc: not a pointwise op");
    }
    ds.write(in.dst.offset + i, r);
  }
}

bool Mdmc::word_pointwise(const Instr& in, std::size_t len) {
  const bool binary = in.op == Opcode::kPModAdd || in.op == Opcode::kPModSub ||
                      in.op == Opcode::kPModMul;
  if (!word_ring_ || !(binary || in.op == Opcode::kPModSqr || in.op == Opcode::kCModMul))
    return false;
  Sram& xs = mem_.bank(in.x.bank);
  Sram& ys = mem_.bank(in.y.bank);
  Sram& ds = mem_.bank(in.dst.bank);
  const auto fits = [len](const MemRef& r, const Sram& b) {
    return r.offset + len <= b.words();
  };
  // The PE loop reads word i, then writes word i; a source that partially
  // overlaps the destination would see words this command already wrote.
  const auto in_place_or_apart = [&](const MemRef& r) {
    return r.bank != in.dst.bank || r.offset == in.dst.offset ||
           r.offset + len <= in.dst.offset || in.dst.offset + len <= r.offset;
  };
  if (!fits(in.x, xs) || !fits(in.dst, ds) || !in_place_or_apart(in.x)) return false;
  if (binary && (!fits(in.y, ys) || !in_place_or_apart(in.y))) return false;
  const std::uint64_t q = red64_.modulus();
  const u128 c = gpcfg_.cmod_const();
  if (in.op == Opcode::kCModMul && c >= q) return false;
  if (!narrow(xs.peek_block(in.x.offset, len), a64_)) return false;
  if (binary && !narrow(ys.peek_block(in.y.offset, len), b64_)) return false;

  xs.read_block(in.x.offset, len);
  if (binary) ys.read_block(in.y.offset, len);
  const auto& K = nt::simd::kernels();
  std::uint64_t* a = a64_.data();
  const std::uint64_t* b = b64_.data();
  switch (in.op) {
    case Opcode::kPModAdd:
      for (std::size_t i = 0; i < len; ++i) a[i] = red64_.add(a[i], b[i]);
      break;
    case Opcode::kPModSub:
      for (std::size_t i = 0; i < len; ++i) a[i] = red64_.sub(a[i], b[i]);
      break;
    case Opcode::kPModMul:
      K.pointwise_mul(a, a, b, len, q, red64_.mu(), red64_.k());
      break;
    case Opcode::kPModSqr:
      K.pointwise_mul(a, a, a, len, q, red64_.mu(), red64_.k());
      break;
    default: {  // kCModMul
      const auto w = static_cast<std::uint64_t>(c);
      K.scalar_mul_shoup(a, len, w, nt::shoup_constant(w, q), q);
      break;
    }
  }
  std::copy(a64_.begin(), a64_.end(), ds.write_block(in.dst.offset, len).begin());
  return true;
}

std::uint64_t Mdmc::exec_memcpy(const Instr& in, bool bit_reverse) {
  const std::size_t len = vec_len(in);
  if (!nt::is_power_of_two(len) && bit_reverse)
    throw std::invalid_argument("Mdmc: MEMCPYR length must be a power of 2");
  copy_words(mem_.bank(in.x.bank), in.x.offset, mem_.bank(in.dst.bank), in.dst.offset,
             len, bit_reverse);
  PowerSegment seg;
  seg.cycles = len + cfg_.pointwise_fill;
  seg.sram_reads = len;
  seg.sram_writes = len;
  seg.label = opcode_name(bit_reverse ? Opcode::kMemCpyR : Opcode::kMemCpy).data();
  trace_.append(seg);
  gpcfg_.raise_irq(kIrqOpDone);
  return seg.cycles + cfg_.cmd_issue_cycles;
}

}  // namespace cofhee::chip
