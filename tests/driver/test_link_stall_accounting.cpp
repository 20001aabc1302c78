// Chaos pin for link stall accounting (SerialLink::pre_transaction):
// injected kStallLink seconds are charged to the link clock BEFORE byte
// accounting, so LinkStats::seconds must reconcile exactly --
//
//   seconds == (bytes_tx + bytes_rx) / bytes_per_second  +  sum(stalls)
//
// -- on every frame shape the driver sends: register writes, burst frames
// (configure_ring's coalesced uploads) and 17-byte seed-compressed key
// frames (load_polynomial_seeded).  The driver attributes io as deltas of
// stats().seconds and the trace recorder's "link" spans are built from
// the same deltas, so both views must agree with the closed form; a
// timed-out stall must charge nothing (the frame never moved).  Any
// drift between these three books means stalls are being double-counted
// or dropped somewhere in the io-attribution chain.
#include <gtest/gtest.h>

#include <cstdint>

#include "chip/chip.hpp"
#include "chip/config.hpp"
#include "chip/fault.hpp"
#include "driver/host_driver.hpp"
#include "nt/primes.hpp"
#include "obs/trace.hpp"

namespace cofhee {
namespace {

using driver::ExecMode;
using driver::HostDriver;
using driver::Link;
using driver::u128;

constexpr std::size_t kN = 64;
constexpr double kStall = 0.125;  // seconds, well below the 1.0s timeout

/// (bytes_tx + bytes_rx) / bps for a link: the pure line-time component.
double line_seconds(const chip::SerialLink& lk) {
  return static_cast<double>(lk.stats().bytes_tx + lk.stats().bytes_rx) /
         lk.bytes_per_second();
}

TEST(LinkStallAccounting, BurstFramesReconcileUnderStalls) {
  const u128 q = nt::find_ntt_prime_u128(59, kN);
  const u128 psi = nt::primitive_2nth_root(q, kN);

  // Reference run: count the transactions a timed configure performs.
  chip::CofheeChip clean_chip;
  HostDriver clean(clean_chip, ExecMode::kFifo, Link::kSpi);
  const double clean_io = clean.configure_ring(q, kN, psi, /*timed=*/true);
  const std::uint64_t txns = clean_chip.spi().stats().transactions;
  ASSERT_GT(txns, 0u);
  EXPECT_NEAR(clean_io, line_seconds(clean_chip.spi()), 1e-9);

  // Faulted run: stall EVERY one of those transactions.  Same bytes, same
  // transaction count, plus exactly txns * kStall of injected line time.
  chip::FaultSchedule sch;
  sch.events.push_back({chip::FaultKind::kStallLink, 0, txns, kStall});
  chip::FaultInjector inj(sch);
  chip::CofheeChip chip;
  chip.spi().set_fault_injector(&inj);
  HostDriver drv(chip, ExecMode::kFifo, Link::kSpi);
  const double io = drv.configure_ring(q, kN, psi, /*timed=*/true);

  const chip::LinkStats& st = chip.spi().stats();
  EXPECT_EQ(st.transactions, txns);
  EXPECT_EQ(st.bytes_tx, clean_chip.spi().stats().bytes_tx);
  const double expected =
      line_seconds(chip.spi()) + static_cast<double>(txns) * kStall;
  EXPECT_NEAR(st.seconds, expected, 1e-9);
  // The driver's returned io IS the stats delta, stalls included -- this
  // is what flows into ChipMulReport::io_seconds and the service's
  // per-chip attribution, so a degraded link is *visible* there.
  EXPECT_NEAR(io, expected, 1e-9);
  EXPECT_NEAR(io - clean_io, static_cast<double>(txns) * kStall, 1e-9);
}

TEST(LinkStallAccounting, SeedFramesReconcileAndTraceAgrees) {
  const u128 q = nt::find_ntt_prime_u128(59, kN);
  const u128 psi = nt::primitive_2nth_root(q, kN);

  // Stall every transaction of the run; the untimed configure uses the
  // register backdoor (no link traffic), so the seed frame is op 0.
  chip::FaultSchedule sch;
  sch.events.push_back({chip::FaultKind::kStallLink, 0, 1000, kStall});
  chip::FaultInjector inj(sch);
  chip::CofheeChip chip;
  chip.spi().set_fault_injector(&inj);
  HostDriver drv(chip, ExecMode::kFifo, Link::kSpi);
  obs::TraceRecorder rec;
  drv.set_tracer(&rec, /*chip=*/0);

  drv.configure_ring(q, kN, psi, /*timed=*/false);
  ASSERT_EQ(chip.spi().stats().transactions, 0u);  // backdoor: no frames

  const double io = drv.load_polynomial_seeded(chip::Bank::kSp1, 0, kN,
                                               /*seed=*/1234, /*tower=*/0);
  const chip::LinkStats& st = chip.spi().stats();
  // One 17-byte compressed frame, stalled once.
  EXPECT_EQ(st.transactions, 1u);
  EXPECT_EQ(st.bytes_tx, 17u);
  EXPECT_EQ(st.bytes_rx, 0u);
  const double expected = 17.0 / chip.spi().bytes_per_second() + kStall;
  EXPECT_NEAR(st.seconds, expected, 1e-12);
  EXPECT_NEAR(io, expected, 1e-12);

  // The trace's "link" spans are built from the same stats deltas: the
  // simulated link time in the trace equals the link clock exactly.
  if (obs::TraceRecorder::enabled()) {
    EXPECT_NEAR(rec.sim_category_seconds("link"), st.seconds, 1e-12);
  }
}

TEST(LinkStallAccounting, TimedOutStallChargesNothing) {
  // A stall past link_timeout_seconds throws LinkTimeoutError from
  // pre_transaction -- before the transaction counter or any byte moves,
  // so the link books stay clean (the frame never happened).
  chip::FaultSchedule sch;
  sch.link_timeout_seconds = 1.0;
  sch.events.push_back({chip::FaultKind::kStallLink, 0, 1, 4.0});
  chip::FaultInjector inj(sch);
  chip::CofheeChip chip;
  chip.spi().set_fault_injector(&inj);

  const std::uint32_t dbg = chip::MemoryMap::kGpcfgBase + 0x24;  // DBG_REG
  EXPECT_THROW(chip.spi().host_write32(dbg, 0xDEADBEEF), chip::LinkTimeoutError);
  const chip::LinkStats& st = chip.spi().stats();
  EXPECT_EQ(st.transactions, 0u);
  EXPECT_EQ(st.bytes_tx, 0u);
  EXPECT_DOUBLE_EQ(st.seconds, 0.0);
  // The link recovers once the scheduled window passes: the next frame
  // completes and pays only its line time.
  chip.spi().host_write32(dbg, 7);
  EXPECT_EQ(st.transactions, 1u);
  EXPECT_DOUBLE_EQ(st.seconds, 9.0 / chip.spi().bytes_per_second());
}

}  // namespace
}  // namespace cofhee
