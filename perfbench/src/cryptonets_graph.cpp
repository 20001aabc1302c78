// cryptonets_graph: the paper's application at the Fig. 6 configuration.
//
// Closed loop, one client.  A request is a batch of kImages CryptoNets
// {8,4,2} images built into one graph, compiled once at set-up and run by
// GraphExecutor on a 2-chip SPI farm at BfvParams::paper_small() (n = 4096,
// 5 extended u64 towers), scheduled single-threaded.  An item is one image.
// Every chip op is a squaring with relinearization, so the farm runs u64
// towers through the 128-bit Barrett datapath on the SRAM-reuse path.
#include <memory>
#include <random>

#include "apps/cryptonets.hpp"
#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "layers.hpp"
#include "service/chip_farm.hpp"
#include "service/eval_service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace cofhee;

constexpr std::size_t kImages = 1;
constexpr apps::NetworkConfig kNet{8, 4, 2, 0};
/// Tail percentile of per-request latency (about 13 of the ~33 requests of
/// a 55 s run lie beyond it).
constexpr double kTailQ = 0.6;

struct Stack {
  explicit Stack(std::uint64_t seed, Recorder* rec)
      : scheme(bfv::BfvParams::paper_small(), seed),
        sk(scheme.keygen_secret()),
        pk(scheme.keygen_public(sk)),
        rk(scheme.keygen_relin(sk, 16)),
        net(scheme.context(), {kNet.inputs, kNet.hidden, kNet.outputs, seed}),
        farm(2),
        svc(scheme, farm, options(rec)),
        ex(scheme, svc) {
    graph::Graph g;
    for (std::size_t img = 0; img < kImages; ++img) {
      std::vector<graph::NodeId> ins;
      for (std::size_t i = 0; i < kNet.inputs; ++i) ins.push_back(g.input());
      (void)net.build_graph(g, ins);
    }
    Span s(rec, "graph.compile", "bench");
    cg = graph::compile(g);
  }

  service::ServiceOptions options(Recorder* rec) const {
    service::ServiceOptions o;
    o.relin_keys = &rk;
    o.trace = rec;
    // The scheduler runs single-threaded, so the two chips' stages take
    // turns.  With the pooled default each round waited on whichever chip
    // thread the shared host slowed most: over 10 runs the wall metrics
    // spread 0.12 (IQR/median) while CPU per item spread 0.03.
    o.pooled_dispatch = false;
    return o;
  }

  bfv::Ciphertext encrypt(std::int64_t v) {
    bfv::Plaintext p;
    p.coeffs.assign(scheme.context().n(), 0);
    const auto t = static_cast<std::int64_t>(scheme.context().t());
    p.coeffs[0] = static_cast<nt::u64>(((v % t) + t) % t);
    return scheme.encrypt(pk, p);
  }

  bfv::Bfv scheme;
  bfv::SecretKey sk;
  bfv::PublicKey pk;
  bfv::RelinKeys rk;
  apps::CryptoNet net;
  graph::CompiledGraph cg;
  service::ChipFarm farm;
  service::EvalService svc;
  graph::GraphExecutor ex;
};

/// Seeded images (pixels in [-2, 2]) and their encryptions.
struct Batch {
  std::vector<std::vector<std::int64_t>> images;
  std::vector<bfv::Ciphertext> inputs;
};

Batch make_batch(Stack& st, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> pixel(-2, 2);
  Batch b;
  for (std::size_t img = 0; img < kImages; ++img) {
    std::vector<std::int64_t> x(kNet.inputs);
    for (auto& v : x) {
      v = pixel(rng);
      b.inputs.push_back(st.encrypt(v));
    }
    b.images.push_back(std::move(x));
  }
  return b;
}

/// Decrypt and compare every logit; counts one item per image into `r`.
void check(Stack& st, const Batch& b, const std::vector<bfv::Ciphertext>& outs,
           Result& r) {
  for (std::size_t img = 0; img < kImages; ++img) {
    const auto expect = st.net.infer_plain(b.images[img]);
    bool ok = outs.size() == kImages * kNet.outputs;
    for (std::size_t o = 0; ok && o < kNet.outputs; ++o)
      ok = apps::decode_logit(st.scheme, st.sk, outs[img * kNet.outputs + o]) ==
           expect[o];
    r.count(ok);
  }
}

/// Completed-count-weighted mean of the per-class p50 request latencies
/// the service measured, in ms.
double service_p50_ms(const service::ServiceStats& s) {
  double weighted = 0, count = 0;
  for (const auto& c : s.per_class) {
    weighted += static_cast<double>(c.latency.count) * c.latency.p50;
    count += static_cast<double>(c.latency.count);
  }
  return count > 0 ? 1e3 * weighted / count : 0;
}

/// Per-layer service counters over [s0, s1] of one run.
void record_service(Result& r, const service::ServiceStats& s0,
                    const service::ServiceStats& s1) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double rounds = d(s0.rounds, s1.rounds);
  r.set("service.rounds", rounds, "count");
  r.set("service.batch_size", rounds > 0 ? d(s0.completed, s1.completed) / rounds : 0,
        "count");
  r.set("service.latency_p50_ms", service_p50_ms(s1), "ms");
  r.set("service.peak_queue_depth", static_cast<double>(s1.peak_queue_depth), "count");
  r.set("service.rejected",
        d(s0.rejected_rate_limited + s0.rejected_quota + s0.rejected_queue_full +
              s0.rejected_batch_too_large,
          s1.rejected_rate_limited + s1.rejected_quota + s1.rejected_queue_full +
              s1.rejected_batch_too_large),
        "count");
  r.set("service.retries", d(s0.retries + s0.requeues, s1.retries + s1.requeues), "count");
  std::uint64_t configs0 = 0, configs1 = 0;
  for (const auto& c : s0.per_chip) configs0 += c.ring_configs;
  for (const auto& c : s1.per_chip) configs1 += c.ring_configs;
  const double configs = d(configs0, configs1);
  r.set("service.twiddle_hit_ratio",
        configs > 0 ? d(s0.twiddle_cache_hits, s1.twiddle_cache_hits) / configs : 0,
        "ratio");
  r.set("service.chip_occupancy", s1.chip_occupancy(), "ratio");
}

/// PowerTrace segments the farm's chips hold.
std::size_t power_segments(service::ChipFarm& farm) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < farm.size(); ++i)
    n += farm.chip(i).power_trace().segments().size();
  return n;
}

std::uint64_t farm_cycles(service::ChipFarm& farm) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < farm.size(); ++i) c += farm.chip(i).cycles();
  return c;
}

std::unique_ptr<Stack> set_up(std::uint64_t seed, Recorder* rec, std::mt19937_64& rng,
                              Result& r, double* elapsed) {
  const auto t0 = Clock::now();
  auto st = std::make_unique<Stack>(seed, rec);
  const Batch warm = make_batch(*st, rng);
  Result scratch;
  check(*st, warm, st->ex.run(st->cg, warm.inputs), scratch);
  st->svc.drain();
  *elapsed = seconds_since(t0);
  if (scratch.failed != 0) r.mismatch();
  return st;
}

struct Timed {
  double items = 0;
  double busy_s = 0;
  double cpu_s = 0;
  std::vector<double> latency_s;
};

/// The closed loop: encrypt (untimed), run (timed), check (untimed), until
/// `seconds` of wall time have passed.
Timed run_loop(Stack& st, std::mt19937_64& rng, double seconds, Recorder* rec,
               Result& r) {
  Timed t;
  const auto start = Clock::now();
  bool first = true;
  while (seconds_since(start) < seconds) {
    const Batch b = make_batch(st, rng);
    const service::ServiceStats s0 = first ? st.svc.stats() : service::ServiceStats{};
    const std::uint64_t c0 = farm_cycles(st.farm);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<bfv::Ciphertext> outs;
    {
      Span s(rec, "bench.graph_run", "bench");
      outs = st.ex.run(st.cg, b.inputs);
    }
    t.latency_s.push_back(seconds_since(t0));
    t.cpu_s += cpu_seconds() - cpu0;
    check(st, b, outs, r);
    t.items += kImages;
    if (first) {
      // Simulated cost of exactly one request, read once the service is
      // idle, so it is identical on every run of the same code.
      st.svc.drain();
      const service::ServiceStats s1 = st.svc.stats();
      r.set("sim_items_per_s",
            kImages / (s1.pipeline_span_seconds - s0.pipeline_span_seconds), "1/s");
      r.set("chip.sim_cycles_per_item",
            static_cast<double>(farm_cycles(st.farm) - c0) / kImages, "count");
      first = false;
    }
  }
  for (double l : t.latency_s) t.busy_s += l;
  return t;
}

}  // namespace

void run_cryptonets_graph(const Args& args, Recorder* rec, Result& r) {
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
  r.note("latency_tail_quantile", std::to_string(kTailQ));
  r.note("images_per_request", std::to_string(kImages));

  if (rec == nullptr) {
    auto st = set_up_median(
        r, 3, [&](double* s) { return set_up(args.seed, nullptr, rng, r, s); });
    ProcSampler ps;
    const Timed t = run_loop(*st, rng, args.seconds, nullptr, r);
    ps.stop();
    r.set("items_per_s", t.items / t.busy_s, "1/s");
    r.set("latency_p50_ms", 1e3 * quantile(t.latency_s, 0.5), "ms");
    r.set("latency_tail_ms", 1e3 * quantile(t.latency_s, kTailQ), "ms");
    record_proc(r, ps, t.cpu_s, t.items);
    return;
  }

  // Traced run: untraced half, traced half on a fresh set-up, then probes.
  double ignored = 0;
  double plain_rate = 0;
  {
    auto st = set_up(args.seed, nullptr, rng, r, &ignored);
    const Timed t = run_loop(*st, rng, args.seconds / 2, nullptr, r);
    plain_rate = t.items / t.busy_s;
  }
  auto st = set_up(args.seed, rec, rng, r, &ignored);
  const service::ServiceStats s0 = st->svc.stats();
  ProcSampler ps;
  const Timed t = run_loop(*st, rng, args.seconds / 2, rec, r);
  ps.stop();
  st->svc.drain();
  record_service(r, s0, st->svc.stats());
  record_proc(r, ps, t.cpu_s, t.items);
  r.set("trace.overhead_frac", 1.0 - (t.items / t.busy_s) / plain_rate, "ratio");
  r.set("graph.rounds", static_cast<double>(st->cg.rounds.size()), "count");
  r.set("graph.chip_requests", static_cast<double>(st->cg.chip_ops), "count");
  r.set("chip.power_segments", static_cast<double>(power_segments(st->farm)), "count");
  // The workload's chip op: a squaring with relinearization of one
  // freshly encrypted pre-activation.
  service::EvalRequest req{st->encrypt(static_cast<std::int64_t>(rng() % 5) - 2), {},
                           service::RequestKind::kMultRelin, true};
  probe_nt(rec, args.seed);
  replay_driver(st->scheme, st->rk, req, 3, rec, r);
  probe_software(st->scheme, st->rk, req, 3, rec);
  const bfv::Ciphertext product =
      st->scheme.relinearize(st->scheme.multiply(req.a, req.a), st->rk);
  probe_codec(req, product, 5, rec);
  probe_front_door(args.seed, 21, rec, r);
}

}  // namespace perfbench
