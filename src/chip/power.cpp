#include "chip/power.hpp"

namespace cofhee::chip {

double PowerTrace::segment_energy_pj(const PowerSegment& s) const {
  double pj = static_cast<double>(s.cycles) * table_.static_pj_per_cycle;
  pj += static_cast<double>(s.mult_fwd) * table_.mult_fwd_pj;
  pj += static_cast<double>(s.mult_inv) * table_.mult_inv_pj;
  pj += static_cast<double>(s.adds) * table_.add_pj;
  pj += static_cast<double>(s.subs) * table_.sub_pj;
  pj += static_cast<double>(s.sram_reads) * table_.sram_read_pj;
  pj += static_cast<double>(s.sram_writes) * table_.sram_write_pj;
  pj += static_cast<double>(s.twiddle_reads) * table_.twiddle_read_pj;
  pj += static_cast<double>(s.dma_words) * table_.dma_word_pj;
  if (s.dma_concurrent)
    pj += static_cast<double>(s.cycles) * table_.dma_concurrent_pj;
  return pj;
}

double PowerTrace::segment_power_mw(const PowerSegment& s) const {
  if (s.cycles == 0) return 0.0;
  const double pj_per_cycle = segment_energy_pj(s) / static_cast<double>(s.cycles);
  return pj_per_cycle / cycle_ns_;  // pJ/ns == mW
}

void PowerTrace::clear() {
  total_pj_ = 0;
  cycles_ = 0;
  peak_mw_ = 0;
  window_.clear();
}

void PowerTrace::append(const PowerSegment& seg) {
  total_pj_ += segment_energy_pj(seg);
  cycles_ += seg.cycles;
  const double p = segment_power_mw(seg);
  if (p > peak_mw_) peak_mw_ = p;
  // Drop the older half when full: amortized O(1), never above kWindow.
  if (window_.size() == kWindow)
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(kWindow / 2));
  window_.push_back(seg);
}

PowerReport PowerTrace::report() const {
  PowerReport r;
  r.cycles = cycles_;
  r.peak_mw = peak_mw_;
  r.energy_uj = total_pj_ * 1e-6;
  const double total_ns = static_cast<double>(r.cycles) * cycle_ns_;
  r.avg_mw = total_ns > 0 ? total_pj_ / total_ns : 0.0;
  return r;
}

}  // namespace cofhee::chip
