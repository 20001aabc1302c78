#include "chip/power.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bfv/encoder.hpp"
#include "driver/chip_bfv.hpp"

namespace cofhee::chip {
namespace {

TEST(PowerTrace, StaticOnlySegment) {
  EnergyTable et;
  PowerTrace tr(et, 4.0);
  PowerSegment s;
  s.cycles = 1000;
  tr.append(s);
  const auto rep = tr.report();
  // 12 pJ / 4 ns = 3 mW.
  EXPECT_NEAR(rep.avg_mw, et.static_pj_per_cycle / 4.0, 1e-9);
  EXPECT_NEAR(rep.peak_mw, rep.avg_mw, 1e-9);
  EXPECT_EQ(rep.cycles, 1000u);
}

TEST(PowerTrace, PeakIsMaxOverSegments) {
  EnergyTable et;
  PowerTrace tr(et, 4.0);
  PowerSegment light;
  light.cycles = 100;
  PowerSegment heavy;
  heavy.cycles = 100;
  heavy.mult_fwd = 100;
  heavy.sram_reads = 200;
  heavy.sram_writes = 200;
  tr.append(light);
  tr.append(heavy);
  const auto rep = tr.report();
  EXPECT_GT(rep.peak_mw, tr.segment_power_mw(light));
  EXPECT_NEAR(rep.peak_mw, tr.segment_power_mw(heavy), 1e-9);
  EXPECT_LT(rep.avg_mw, rep.peak_mw);
}

TEST(PowerTrace, EnergyAdds) {
  EnergyTable et;
  PowerTrace tr(et, 4.0);
  PowerSegment s;
  s.cycles = 10;
  s.mult_fwd = 10;
  tr.append(s);
  tr.append(s);
  const auto rep = tr.report();
  const double expect_pj = 2 * (10 * et.static_pj_per_cycle + 10 * et.mult_fwd_pj);
  EXPECT_NEAR(rep.energy_uj, expect_pj * 1e-6, 1e-12);
}

TEST(PowerTrace, DmaConcurrentAddsPower) {
  EnergyTable et;
  PowerTrace tr(et, 4.0);
  PowerSegment a;
  a.cycles = 100;
  PowerSegment b = a;
  b.dma_concurrent = true;
  EXPECT_GT(tr.segment_power_mw(b), tr.segment_power_mw(a));
  EXPECT_NEAR(tr.segment_power_mw(b) - tr.segment_power_mw(a),
              et.dma_concurrent_pj / 4.0, 1e-9);
}

TEST(PowerTrace, ClearResets) {
  EnergyTable et;
  PowerTrace tr(et, 4.0);
  PowerSegment s;
  s.cycles = 5;
  tr.append(s);
  tr.clear();
  EXPECT_EQ(tr.report().cycles, 0u);
}

TEST(PowerTrace, WindowKeepsTheMostRecentSegments) {
  PowerTrace tr(EnergyTable{}, 4.0);
  for (std::uint64_t i = 1; i <= 3 * PowerTrace::kWindow; ++i) {
    PowerSegment s;
    s.cycles = i;
    tr.append(s);
    ASSERT_LE(tr.segments().size(), PowerTrace::kWindow);
  }
  EXPECT_EQ(tr.segments().back().cycles, 3 * PowerTrace::kWindow);
  EXPECT_EQ(tr.report().cycles, 3 * PowerTrace::kWindow * (3 * PowerTrace::kWindow + 1) / 2);
}

TEST(PowerTrace, StaysBoundedOverManyRequests) {
  // 200 test_tiny EvalMults on one long-lived chip: the trace holds at most
  // kWindow segments, and its report is the fold of per-request reports
  // taken on a twin chip whose trace is cleared before every request.
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(), 3};
  const auto sk = scheme.keygen_secret();
  const auto pk = scheme.keygen_public(sk);
  bfv::IntegerEncoder enc(scheme.context());
  const auto ca = scheme.encrypt(pk, enc.encode(12));
  const auto cb = scheme.encrypt(pk, enc.encode(-5));

  CofheeChip served, twin;
  driver::ChipBfvEvaluator ev_served(served), ev_twin(twin);
  double energy_uj = 0;
  double peak_mw = 0;
  std::uint64_t cycles = 0;
  for (int r = 0; r < 200; ++r) {
    (void)ev_served.multiply(scheme, ca, cb);
    twin.power_trace().clear();
    (void)ev_twin.multiply(scheme, ca, cb);
    const auto rep = twin.power_trace().report();
    energy_uj += rep.energy_uj;
    peak_mw = std::max(peak_mw, rep.peak_mw);
    cycles += rep.cycles;
    ASSERT_LE(served.power_trace().segments().size(), PowerTrace::kWindow);
  }
  const auto total = served.power_trace().report();
  EXPECT_EQ(total.cycles, cycles);
  EXPECT_EQ(total.peak_mw, peak_mw);
  EXPECT_NEAR(total.energy_uj, energy_uj, 1e-12 * energy_uj);
  EXPECT_NEAR(total.avg_mw,
              energy_uj * 1e6 / (static_cast<double>(cycles) * served.config().cycle_ns()),
              1e-12 * total.avg_mw);
}

}  // namespace
}  // namespace cofhee::chip
