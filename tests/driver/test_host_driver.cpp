#include "driver/host_driver.hpp"

#include <gtest/gtest.h>

#include "bfv/params.hpp"
#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/sampler.hpp"

namespace cofhee::driver {
namespace {

using chip::Bank;
using nt::Barrett128;

struct DriverFixture {
  chip::CofheeChip chip;
  u128 q;
  std::size_t n;
  Barrett128 ring;

  explicit DriverFixture(std::size_t n_, unsigned bits = 109)
      : q(nt::find_ntt_prime_u128(bits, n_)), n(n_), ring(q) {}

  HostDriver make_driver(ExecMode mode, Link link = Link::kSpi) {
    HostDriver d(chip, mode, link);
    d.configure_ring(q, n, nt::primitive_2nth_root(q, n));
    return d;
  }

  std::vector<u128> random_poly(std::uint64_t seed) {
    poly::Rng rng(seed);
    return poly::sample_uniform128(rng, n, q);
  }
};

TEST(HostDriver, TimedPolynomialUploadRoundTrip) {
  DriverFixture f(128);
  auto d = f.make_driver(ExecMode::kFifo, Link::kSpi);
  const auto a = f.random_poly(1);
  const double up = d.load_polynomial(Bank::kSp0, 0, a);
  EXPECT_GT(up, 0.0);
  double down = 0;
  const auto back = d.read_polynomial(Bank::kSp0, 0, f.n, &down);
  EXPECT_EQ(back, a);
  EXPECT_GT(down, 0.0);
  // SPI at 50 MHz moves ~6.25 MB/s; 128 coeffs x 16 B ~ 2 KiB + framing.
  EXPECT_LT(up, 1e-2);
}

TEST(HostDriver, UartIsSlowerThanSpi) {
  DriverFixture f(128);
  auto du = f.make_driver(ExecMode::kFifo, Link::kUart);
  auto ds = f.make_driver(ExecMode::kFifo, Link::kSpi);
  const auto a = f.random_poly(2);
  const double uart_s = du.load_polynomial(Bank::kSp0, 0, a);
  const double spi_s = ds.load_polynomial(Bank::kSp1, 0, a);
  EXPECT_GT(uart_s, spi_s * 5);  // 3 Mbaud 8N1 vs 50 MHz SPI
}

TEST(HostDriver, PolyMulMatchesSchoolbook) {
  DriverFixture f(128);
  auto d = f.make_driver(ExecMode::kFifo);
  const auto a = f.random_poly(3);
  const auto b = f.random_poly(4);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  f.chip.load_coeffs(Bank::kSp1, 0, b);
  const auto rep = d.poly_mul();
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n),
            poly::schoolbook_negacyclic_mul(f.ring, a, b));
  EXPECT_EQ(rep.commands, 4u);  // 2 NTT + Hadamard + iNTT
}

TEST(HostDriver, PolyMulCyclesMatchTableV) {
  // Table V PolyMul rows: 83,777 cc at n=2^12 and 179,045 cc at n=2^13.
  // Our composed schedule gives 2*NTT + Had + iNTT + DMA staging; assert
  // within 0.15% of silicon (measurement jitter; see EXPERIMENTS.md).
  for (const auto& [n, silicon] :
       {std::pair<std::size_t, std::uint64_t>{4096, 83777}, {8192, 179045}}) {
    DriverFixture f(n, 60);
    auto d = f.make_driver(ExecMode::kFifo);
    const auto a = f.random_poly(5);
    f.chip.load_coeffs(Bank::kSp0, 0, a);
    f.chip.load_coeffs(Bank::kSp1, 0, a);
    const auto rep = d.poly_mul();
    const double err = std::abs(static_cast<double>(rep.compute_cycles) -
                                static_cast<double>(silicon)) /
                       static_cast<double>(silicon);
    EXPECT_LT(err, 0.0015) << "n=" << n << " cycles=" << rep.compute_cycles;
  }
}

TEST(HostDriver, CiphertextMulMatchesSoftwareTensor) {
  DriverFixture f(64);
  auto d = f.make_driver(ExecMode::kFifo);
  const auto a0 = f.random_poly(6), a1 = f.random_poly(7);
  const auto b0 = f.random_poly(8), b1 = f.random_poly(9);
  f.chip.load_coeffs(Bank::kSp0, 0, a0);
  f.chip.load_coeffs(Bank::kSp1, 0, a1);
  f.chip.load_coeffs(Bank::kSp2, 0, b0);
  f.chip.load_coeffs(Bank::kSp3, 0, b1);
  d.ciphertext_mul();

  // Expected tensor (Eq. 4 numerators): Y0 = a0 b0, Y1 = a0 b1 + a1 b0,
  // Y2 = a1 b1, all negacyclic.
  const auto y0 = poly::schoolbook_negacyclic_mul(f.ring, a0, b0);
  auto y1 = poly::pointwise_add(f.ring, poly::schoolbook_negacyclic_mul(f.ring, a0, b1),
                                poly::schoolbook_negacyclic_mul(f.ring, a1, b0));
  const auto y2 = poly::schoolbook_negacyclic_mul(f.ring, a1, b1);
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp0, 0, f.n), y0);
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp1, 0, f.n), y1);
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), y2);
}

TEST(HostDriver, CiphertextMulLatencyMatchesFig6) {
  // Fig. 6a: 0.84 ms at (n, log q) = (2^12, 109) on one tower.
  DriverFixture f(4096, 109);
  auto d = f.make_driver(ExecMode::kFifo);
  const auto a = f.random_poly(10);
  for (Bank b : {Bank::kSp0, Bank::kSp1, Bank::kSp2, Bank::kSp3})
    f.chip.load_coeffs(b, 0, a);
  const auto rep = d.ciphertext_mul();
  EXPECT_EQ(rep.commands, 12u);  // 4 NTT + 4 Hadamard + 1 add + 3 iNTT
  EXPECT_NEAR(rep.compute_ms, 0.84, 0.01);
}

TEST(HostDriver, AllExecutionModesAgree) {
  // Section III-I: the three modes differ in sequencing cost, not results.
  std::vector<std::vector<u128>> results;
  double direct_io = -1;
  for (ExecMode mode : {ExecMode::kDirect, ExecMode::kFifo, ExecMode::kCm0}) {
    DriverFixture f(64);
    auto d = f.make_driver(mode);
    const auto a = f.random_poly(11);
    const auto b = f.random_poly(12);
    f.chip.load_coeffs(Bank::kSp0, 0, a);
    f.chip.load_coeffs(Bank::kSp1, 0, b);
    const auto rep = d.poly_mul();
    if (mode == ExecMode::kDirect) direct_io = rep.io_seconds;
    if (mode == ExecMode::kCm0) {
      EXPECT_GT(rep.cm0_cycles, 0u);
    }
    results.push_back(f.chip.read_coeffs(Bank::kSp2, 0, f.n));
    EXPECT_GT(rep.compute_cycles, 0u);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
  // Mode 1 pays serial latency per command ("this mode is slow").
  EXPECT_GT(direct_io, 0.0);
}

TEST(HostDriver, Cm0ModeRunsLongPrograms) {
  // More commands than the FIFO depth forces multi-batch firmware.
  DriverFixture f(64);
  auto d = f.make_driver(ExecMode::kCm0);
  const auto a = f.random_poly(13);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  std::vector<chip::Instr> prog;
  for (int i = 0; i < 40; ++i) {
    prog.push_back({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0},
                    static_cast<std::uint32_t>(f.n), 0});
  }
  const auto rep = d.run(prog);
  EXPECT_EQ(rep.commands, 40u);
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp1, 0, f.n), a);
}

TEST(HostDriver, ConfigureBeforeUseEnforced) {
  chip::CofheeChip c;
  HostDriver d(c, ExecMode::kFifo);
  EXPECT_THROW((void)d.poly_mul(), std::logic_error);
}

TEST(HostDriver, U64RingRomAndInvPolyDegMatchTheBarrett128Build) {
  // configure_ring builds a u64 tower's ROM over Barrett64: the TW bank and
  // INV_POLYDEG must hold the words the Barrett128 build gives, on both the
  // backdoor and the timed link path, for every tower of every preset.
  for (const auto& params : {bfv::BfvParams::test_tiny(64), bfv::BfvParams::paper_small(),
                             bfv::BfvParams::paper_large()}) {
    std::vector<nt::u64> towers = params.q_moduli;
    towers.insert(towers.end(), params.aux_moduli.begin(), params.aux_moduli.end());
    for (const nt::u64 q : towers) {
      const Barrett128 wide(q);
      const u128 psi = nt::primitive_2nth_root(q, params.n);
      const auto rom = poly::twiddle_rom(wide, params.n, psi);
      const u128 n_inv = wide.inv(static_cast<u128>(params.n));
      for (const bool timed : {false, true}) {
        chip::CofheeChip c;
        HostDriver d(c, ExecMode::kFifo);
        d.configure_ring(q, params.n, psi, timed);
        EXPECT_EQ(c.read_coeffs(Bank::kTw, 0, params.n), rom) << q << " timed=" << timed;
        EXPECT_EQ(c.gpcfg().inv_polydeg(), n_inv) << q << " timed=" << timed;
      }
    }
  }
}

}  // namespace
}  // namespace cofhee::driver
