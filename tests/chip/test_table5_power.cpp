// Regression-pins the power model against the silicon measurements of
// Table V: every row must stay within 10% (the fit currently holds ~7%).
#include <gtest/gtest.h>

#include <ostream>

#include "chip/chip.hpp"
#include "driver/host_driver.hpp"
#include "nt/primes.hpp"
#include "poly/sampler.hpp"

namespace cofhee::chip {
namespace {

struct PowerCase {
  const char* algo;
  std::size_t n;
  double avg_mw, peak_mw;
};

// Names each case "<algo>_n<n>" so test names do not carry the address of
// the algo string, which moves on every link.
void PrintTo(const PowerCase& pc, std::ostream* os) { *os << pc.algo << "_n" << pc.n; }

class TableVPower : public ::testing::TestWithParam<PowerCase> {};

TEST_P(TableVPower, WithinTenPercentOfSilicon) {
  const auto& pc = GetParam();
  const auto q = nt::find_ntt_prime_u128(109, pc.n);
  CofheeChip soc;
  driver::HostDriver drv(soc);
  drv.configure_ring(q, pc.n, nt::primitive_2nth_root(q, pc.n));
  poly::Rng rng(pc.n);
  const auto a = poly::sample_uniform128(rng, pc.n, q);
  soc.load_coeffs(Bank::kSp0, 0, a);
  soc.load_coeffs(Bank::kSp1, 0, a);
  soc.load_coeffs(Bank::kDp0, 0, a);
  soc.reset_metrics();

  const std::string op = pc.algo;
  if (op == "PolyMul") {
    (void)drv.poly_mul();
  } else if (op == "NTT") {
    (void)drv.ntt({Bank::kDp0, 0}, {Bank::kDp1, 0});
  } else {
    (void)drv.ntt({Bank::kDp0, 0}, {Bank::kDp1, 0});
    soc.reset_metrics();
    (void)drv.intt({Bank::kDp1, 0}, {Bank::kDp0, 0});
  }
  const auto rep = soc.power_trace().report();
  EXPECT_NEAR(rep.avg_mw, pc.avg_mw, 0.10 * pc.avg_mw) << op << " n=" << pc.n;
  EXPECT_NEAR(rep.peak_mw, pc.peak_mw, 0.10 * pc.peak_mw) << op << " n=" << pc.n;
}

INSTANTIATE_TEST_SUITE_P(PaperTableV, TableVPower,
                         ::testing::Values(PowerCase{"PolyMul", 4096, 22.9, 30.4},
                                           PowerCase{"NTT", 4096, 24.5, 30.4},
                                           PowerCase{"iNTT", 4096, 19.9, 27.2},
                                           PowerCase{"PolyMul", 8192, 21.2, 29.7},
                                           PowerCase{"NTT", 8192, 24.4, 29.7},
                                           PowerCase{"iNTT", 8192, 18.3, 23.9}));

}  // namespace
}  // namespace cofhee::chip
