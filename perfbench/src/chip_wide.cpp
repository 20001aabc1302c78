// chip_wide: the chip at the paper's native maximum (Table V).
//
// Closed loop, one HostDriver on one chip, n = 2^14 and a 109-bit modulus
// (q > 2^64), SPI link, FIFO mode.  An item loads two seeded polynomials,
// runs Algorithm-2 poly_mul and reads the product back.  Only the generic
// 128-bit chip datapath and the bulk driver transport run: no service,
// bfv, graph or net.
#include <memory>

#include "chip/chip.hpp"
#include "driver/host_driver.hpp"
#include "layers.hpp"
#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/sampler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace cofhee;
using chip::Bank;

constexpr std::size_t kN = std::size_t{1} << 14;
constexpr unsigned kBits = 109;
/// Tail percentile of per-item latency.  An item takes about 50 ms, so a
/// stall of the shared host lands on a handful of items and lifts the high
/// percentiles of that run alone: over 10 runs of 30 s, IQR/median was 0.24
/// for p95 and 0.32 for p90, against 0.05 for the median.
constexpr double kTailQ = 0.75;

struct Stack {
  Stack()
      : q(nt::find_ntt_prime_u128(kBits, kN)),
        psi(nt::primitive_2nth_root(q, kN)),
        drv(soc),
        reference(nt::Barrett128(q), kN, psi) {
    (void)drv.configure_ring(q, kN, psi, /*timed=*/true);
  }

  nt::u128 q;
  nt::u128 psi;
  chip::CofheeChip soc;
  driver::HostDriver drv;
  poly::MergedNtt128 reference;
};

/// Per-layer metrics of layers this workload does not run read 0, so every
/// workload reports the same metric set.
void record_absent(Result& r, std::initializer_list<const char*> names, const char* unit) {
  for (const char* n : names) r.set(n, 0, unit);
}

struct Item {
  poly::Coeffs<nt::u128> a, b;
};

struct Cost {
  double io_s = 0;
  std::uint64_t cycles = 0;
};

/// One item through the driver; `product` receives the read-back result.
Cost run_item(Stack& st, const Item& it, poly::Coeffs<nt::u128>& product, Recorder* rec) {
  Cost c;
  const std::uint64_t c0 = st.soc.cycles();
  Span whole(rec, "driver.request", "bench");
  {
    Span s(rec, "driver.load", "bench");
    c.io_s += st.drv.load_polynomial(Bank::kSp0, 0, it.a);
  }
  {
    Span s(rec, "driver.load", "bench");
    c.io_s += st.drv.load_polynomial(Bank::kSp1, 0, it.b);
  }
  {
    Span s(rec, "chip.poly_mul", "bench");
    const std::uint64_t m0 = st.soc.cycles();
    (void)st.drv.poly_mul();
    s.arg("ops", static_cast<double>(st.soc.cycles() - m0));
  }
  Span s(rec, "driver.read", "bench");
  double read_s = 0;
  product = st.drv.read_polynomial(Bank::kSp2, 0, kN, &read_s);
  c.io_s += read_s;
  c.cycles = st.soc.cycles() - c0;
  return c;
}

std::unique_ptr<Stack> set_up(poly::Rng& rng, Result& r, double* elapsed) {
  const auto t0 = Clock::now();
  auto st = std::make_unique<Stack>();
  const Item warm{poly::sample_uniform128(rng, kN, st->q),
                  poly::sample_uniform128(rng, kN, st->q)};
  poly::Coeffs<nt::u128> product;
  (void)run_item(*st, warm, product, nullptr);
  *elapsed = seconds_since(t0);
  if (product != st->reference.negacyclic_mul(warm.a, warm.b)) r.mismatch();
  return st;
}

struct Timed {
  double busy_s = 0;
  double cpu_s = 0;
  std::vector<double> latency_s;
};

/// Sample (untimed), run (timed), compare with MergedNtt128 (untimed).
Timed run_loop(Stack& st, poly::Rng& rng, double seconds, Recorder* rec, Result& r) {
  Timed t;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    const Item it{poly::sample_uniform128(rng, kN, st.q),
                  poly::sample_uniform128(rng, kN, st.q)};
    poly::Coeffs<nt::u128> product;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const Cost c = run_item(st, it, product, rec);
    t.latency_s.push_back(seconds_since(t0));
    t.cpu_s += cpu_seconds() - cpu0;
    r.count(product == st.reference.negacyclic_mul(it.a, it.b));
    if (t.latency_s.size() == 1) {
      const double compute_s =
          static_cast<double>(c.cycles) * st.soc.config().cycle_ns() * 1e-9;
      r.set("sim_items_per_s", 1.0 / (c.io_s + compute_s), "1/s");
      r.set("chip.sim_cycles_per_item", static_cast<double>(c.cycles), "count");
      r.set("driver.sim_io_s", c.io_s, "s");
      r.set("driver.sim_compute_ms", 1e3 * compute_s, "ms");
    }
  }
  for (double l : t.latency_s) t.busy_s += l;
  return t;
}

}  // namespace

void run_chip_wide(const Args& args, Recorder* rec, Result& r) {
  poly::Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 3);
  r.note("latency_tail_quantile", std::to_string(kTailQ));

  if (rec == nullptr) {
    auto st = set_up_median(r, 5, [&](double* s) { return set_up(rng, r, s); });
    ProcSampler ps;
    const Timed t = run_loop(*st, rng, args.seconds, nullptr, r);
    ps.stop();
    const double items = static_cast<double>(t.latency_s.size());
    r.set("items_per_s", items / t.busy_s, "1/s");
    r.set("latency_p50_ms", 1e3 * quantile(t.latency_s, 0.5), "ms");
    r.set("latency_tail_ms", 1e3 * quantile(t.latency_s, kTailQ), "ms");
    record_proc(r, ps, t.cpu_s, items);
    return;
  }

  double ignored = 0;
  double plain_rate = 0;
  {
    auto st = set_up(rng, r, &ignored);
    const Timed t = run_loop(*st, rng, args.seconds / 2, nullptr, r);
    plain_rate = static_cast<double>(t.latency_s.size()) / t.busy_s;
  }
  auto st = set_up(rng, r, &ignored);
  ProcSampler ps;
  const Timed t = run_loop(*st, rng, args.seconds / 2, rec, r);
  ps.stop();
  const double items = static_cast<double>(t.latency_s.size());
  record_proc(r, ps, t.cpu_s, items);
  r.set("trace.overhead_frac", 1.0 - (items / t.busy_s) / plain_rate, "ratio");
  r.set("chip.power_segments", static_cast<double>(st->soc.power_trace().segments().size()),
        "count");
  record_absent(r, {"service.latency_p50_ms", "net.overhead_ms"}, "ms");
  record_absent(r, {"service.rounds", "service.batch_size", "service.peak_queue_depth",
                    "service.rejected", "service.retries", "graph.rounds",
                    "graph.chip_requests", "net.bytes_per_request",
                    "net.connections_accepted", "net.rejects_sent"},
                "count");
  record_absent(r, {"service.twiddle_hit_ratio", "service.chip_occupancy"}, "ratio");
  probe_nt(rec, args.seed);
}

}  // namespace perfbench
