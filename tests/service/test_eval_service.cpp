// Differential battery for the evaluation service: every (strategy, chip
// count, batch size) combination must produce ciphertexts byte-identical
// to the serial software path -- every tower of every component equal, not
// merely decrypting to the same plaintext -- plus stats accounting and
// graceful-shutdown behavior.
#include "service/eval_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "bfv/encoder.hpp"

namespace cofhee::service {
namespace {

struct ServiceFixture {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), /*seed=*/17};
  bfv::SecretKey sk = scheme.keygen_secret();
  bfv::PublicKey pk = scheme.keygen_public(sk);
  bfv::RelinKeys rk = scheme.keygen_relin(sk, 16);
  bfv::IntegerEncoder enc{scheme.context()};

  // A fixed request mix (products stay inside |x*y| < t/2) with the serial
  // software reference computed once up front.
  std::vector<std::pair<std::int64_t, std::int64_t>> plains = {
      {0, 1}, {1, 1}, {-1, 7}, {2, 3}, {255, -128}, {-181, 181}};
  std::vector<EvalMultRequest> requests;
  std::vector<bfv::Ciphertext> expected;

  ServiceFixture() {
    for (const auto& [x, y] : plains) {
      EvalMultRequest r{scheme.encrypt(pk, enc.encode(x)),
                        scheme.encrypt(pk, enc.encode(y))};
      expected.push_back(scheme.multiply(r.a, r.b));
      requests.push_back(std::move(r));
    }
  }

  /// The same traffic re-expressed for `kind`, with its software reference.
  std::vector<EvalRequest> requests_of(RequestKind kind) const {
    std::vector<EvalRequest> out;
    for (const auto& r : requests) {
      if (kind == RequestKind::kRelinearize) {
        out.push_back({scheme.multiply(r.a, r.b), {}, kind});
      } else {
        out.push_back({r.a, r.b, kind});
      }
    }
    return out;
  }
  bfv::Ciphertext expected_of(RequestKind kind, std::size_t i) const {
    if (kind == RequestKind::kEvalMult) return expected[i];
    return scheme.relinearize(expected[i], rk);  // relin and mult+relin agree
  }
};

void expect_bit_exact(const bfv::Ciphertext& got, const bfv::Ciphertext& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got.c[i].towers, want.c[i].towers) << "component " << i;
}

TEST(EvalService, DifferentialMatrixIsBitExact) {
  ServiceFixture f;
  for (Strategy strategy : {Strategy::kBatchPerChip, Strategy::kShardTowers}) {
    for (std::size_t chips : {1u, 2u, 4u}) {
      for (std::size_t batch : {1u, 4u, 16u}) {
        SCOPED_TRACE("strategy=" + std::to_string(static_cast<int>(strategy)) +
                     " chips=" + std::to_string(chips) +
                     " batch=" + std::to_string(batch));
        ChipFarm farm(chips);
        EvalService svc(f.scheme, farm, {strategy, batch});
        auto futures = svc.submit_batch(f.requests);
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const auto got = futures[i].get();
          expect_bit_exact(got, f.expected[i]);
          EXPECT_EQ(f.enc.decode(f.scheme.decrypt(f.sk, got)),
                    f.plains[i].first * f.plains[i].second);
        }
      }
    }
  }
}

TEST(EvalService, RequestKindMatrixIsBitExact) {
  // The acceptance matrix: 3 request kinds x 2 strategies x 1/2/4 chips,
  // every result byte-identical to the serial software path.
  ServiceFixture f;
  ServiceOptions base;
  base.relin_keys = &f.rk;
  base.max_batch = 4;
  for (RequestKind kind : {RequestKind::kEvalMult, RequestKind::kRelinearize,
                           RequestKind::kMultRelin}) {
    const auto reqs = f.requests_of(kind);
    for (Strategy strategy : {Strategy::kBatchPerChip, Strategy::kShardTowers}) {
      for (std::size_t chips : {1u, 2u, 4u}) {
        SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                     " strategy=" + std::to_string(static_cast<int>(strategy)) +
                     " chips=" + std::to_string(chips));
        ChipFarm farm(chips);
        ServiceOptions opts = base;
        opts.strategy = strategy;
        EvalService svc(f.scheme, farm, opts);
        auto futures = svc.submit_batch(reqs);
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const auto got = futures[i].get();
          expect_bit_exact(got, f.expected_of(kind, i));
          EXPECT_EQ(f.enc.decode(f.scheme.decrypt(f.sk, got)),
                    f.plains[i].first * f.plains[i].second);
        }
      }
    }
  }
}

TEST(EvalService, MixedKindRoundIsBitExact) {
  // One dispatcher round carrying all three kinds at once: the chip stage
  // runs the tensor sub-stage for mult/mult-relin slots and the key-switch
  // sub-stage for relin/mult-relin slots without cross-talk.
  ServiceFixture f;
  std::vector<EvalRequest> reqs;
  std::vector<bfv::Ciphertext> want;
  for (std::size_t i = 0; i < f.requests.size(); ++i) {
    const auto kind = static_cast<RequestKind>(i % 3);
    auto all = f.requests_of(kind);
    reqs.push_back(all[i]);
    want.push_back(f.expected_of(kind, i));
  }
  for (Strategy strategy : {Strategy::kBatchPerChip, Strategy::kShardTowers}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    ChipFarm farm(2);
    ServiceOptions opts;
    opts.strategy = strategy;
    opts.max_batch = reqs.size();
    opts.relin_keys = &f.rk;
    EvalService svc(f.scheme, farm, opts);
    auto futures = svc.submit_batch(reqs);
    for (std::size_t i = 0; i < futures.size(); ++i)
      expect_bit_exact(futures[i].get(), want[i]);
  }
}

TEST(EvalService, OverlappedRoundsMatchSequentialRounds) {
  // Double-buffering changes scheduling only: with overlap on, trickled
  // rounds must still produce byte-identical ciphertexts, and the stats
  // must show the pipeline actually engaged.
  ServiceFixture f;
  const auto reqs = f.requests_of(RequestKind::kMultRelin);
  std::vector<bfv::Ciphertext> got_overlap, got_serial;
  for (bool overlap : {true, false}) {
    ChipFarm farm(2);
    ServiceOptions opts;
    opts.max_batch = 1;  // one request per round -> many rounds to pipeline
    opts.relin_keys = &f.rk;
    opts.pipeline_depth = overlap ? 2 : 1;
    EvalService svc(f.scheme, farm, opts);
    std::vector<std::future<bfv::Ciphertext>> futures;
    for (const auto& r : reqs) futures.push_back(svc.submit(r));
    for (auto& fu : futures)
      (overlap ? got_overlap : got_serial).push_back(fu.get());
    svc.drain();
    const auto s = svc.stats();
    EXPECT_EQ(s.completed, reqs.size());
    EXPECT_GT(s.pipeline_span_seconds, 0.0);
    EXPECT_GT(s.serial_span_seconds, 0.0);
    if (overlap) {
      // Not every round is guaranteed to overlap (the queue may run dry
      // between submissions), but the span model must never exceed the
      // back-to-back schedule.
      EXPECT_LE(s.pipeline_span_seconds, s.serial_span_seconds + 1e-12);
    } else {
      EXPECT_EQ(s.overlapped_rounds, 0u);
      EXPECT_NEAR(s.pipeline_span_seconds, s.serial_span_seconds, 1e-12);
    }
  }
  ASSERT_EQ(got_overlap.size(), got_serial.size());
  for (std::size_t i = 0; i < got_overlap.size(); ++i)
    expect_bit_exact(got_overlap[i], got_serial[i]);
}

TEST(EvalService, PipelineModelShowsOverlapOnBackloggedTraffic) {
  // With the whole workload queued up front and max_batch=1, every round
  // after the first is prepared while its predecessor's chip stage is in
  // flight -- the deterministic span model must come out strictly shorter
  // than the back-to-back schedule.
  ServiceFixture f;
  const auto reqs = f.requests_of(RequestKind::kMultRelin);
  ChipFarm farm(1);
  ServiceOptions opts;
  opts.max_batch = 1;
  opts.relin_keys = &f.rk;
  EvalService svc(f.scheme, farm, opts);
  auto futures = svc.submit_batch(reqs);  // atomic: queue is backlogged
  for (auto& fu : futures) (void)fu.get();
  svc.drain();
  const auto s = svc.stats();
  EXPECT_EQ(s.rounds, reqs.size());
  EXPECT_GE(s.overlapped_rounds, reqs.size() - 1);
  EXPECT_LT(s.pipeline_span_seconds, s.serial_span_seconds);
  EXPECT_GT(s.overlap_saved_seconds(), 0.0);
  EXPECT_GT(s.chip_occupancy(), 0.0);
  EXPECT_GT(s.e2e_requests_per_sec(), 0.0);
}

TEST(EvalService, ShardedFourChipsMatchesSerialEvaluator) {
  // The acceptance-criterion configuration spelled out: 4 chips,
  // kShardTowers, vs the single-chip serial ChipBfvEvaluator.
  ServiceFixture f;
  chip::CofheeChip solo;
  driver::ChipBfvEvaluator serial(solo);
  ChipFarm farm(4);
  EvalService svc(f.scheme, farm, {Strategy::kShardTowers});
  auto futures = svc.submit_batch(f.requests);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto want = serial.multiply(f.scheme, f.requests[i].a, f.requests[i].b);
    expect_bit_exact(futures[i].get(), want);
  }
}

TEST(EvalService, SerialDispatchMatchesPooled) {
  ServiceFixture f;
  std::vector<bfv::Ciphertext> pooled, serial;
  for (bool pool : {true, false}) {
    ChipFarm farm(3);
    EvalService svc(f.scheme, farm, {Strategy::kBatchPerChip, 4, pool});
    auto futures = svc.submit_batch(f.requests);
    for (auto& fu : futures) (pool ? pooled : serial).push_back(fu.get());
  }
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < pooled.size(); ++i)
    expect_bit_exact(pooled[i], serial[i]);
}

TEST(EvalService, StatsAccountTheWork) {
  ServiceFixture f;
  const std::size_t chips = 2;
  ChipFarm farm(chips);
  EvalService svc(f.scheme, farm, {Strategy::kBatchPerChip, f.requests.size()});
  auto futures = svc.submit_batch(f.requests);
  for (auto& fu : futures) (void)fu.get();
  svc.drain();
  const auto s = svc.stats();

  const std::size_t towers = f.scheme.context().ext_basis().size();
  EXPECT_EQ(s.submitted, f.requests.size());
  EXPECT_EQ(s.completed, f.requests.size());
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_GE(s.peak_queue_depth, f.requests.size());
  EXPECT_GT(s.io_seconds, 0.0);
  EXPECT_GT(s.compute_seconds, 0.0);
  EXPECT_GT(s.wall_seconds, 0.0);
  EXPECT_GT(s.simulated_requests_per_sec(), 0.0);
  ASSERT_EQ(s.per_chip.size(), chips);
  std::uint64_t reqs = 0, tower_runs = 0;
  for (std::size_t c = 0; c < chips; ++c) {
    reqs += s.per_chip[c].requests;
    tower_runs += s.per_chip[c].tower_runs;
    EXPECT_GE(s.utilization(c), 0.0);
  }
  EXPECT_EQ(reqs, f.requests.size());
  EXPECT_EQ(tower_runs, f.requests.size() * towers);
}

TEST(EvalService, RelinStatsAccountKeySwitchWork) {
  ServiceFixture f;
  const std::size_t chips = 2;
  ChipFarm farm(chips);
  ServiceOptions opts;
  opts.strategy = Strategy::kBatchPerChip;
  opts.max_batch = f.requests.size();
  opts.relin_keys = &f.rk;
  EvalService svc(f.scheme, farm, opts);
  auto futures = svc.submit_batch(f.requests_of(RequestKind::kMultRelin));
  for (auto& fu : futures) (void)fu.get();
  svc.drain();
  const auto s = svc.stats();

  const std::size_t qt = f.scheme.context().q_basis().size();
  const std::size_t et = f.scheme.context().ext_basis().size();
  std::uint64_t tower_runs = 0, relin_runs = 0, ks = 0;
  for (const auto& c : s.per_chip) {
    tower_runs += c.tower_runs;
    relin_runs += c.relin_tower_runs;
    ks += c.ks_products;
  }
  // Every request ran its tensor on the extended basis and its key switch
  // on every Q tower, with 2 PolyMuls per (digit, tower).
  EXPECT_EQ(tower_runs, f.requests.size() * et);
  EXPECT_EQ(relin_runs, f.requests.size() * qt);
  EXPECT_EQ(ks, f.requests.size() * qt * f.rk.keys.size() * 2);
  EXPECT_EQ(s.ks_products, ks);
}

TEST(EvalService, RequestsPerSecUsesActiveWindowNotLifetime) {
  ServiceFixture f;
  ChipFarm farm(1);
  EvalService svc(f.scheme, farm, {Strategy::kBatchPerChip, 4});
  auto futures = svc.submit_batch(f.requests);
  for (auto& fu : futures) (void)fu.get();
  svc.drain();
  const auto s1 = svc.stats();
  EXPECT_GT(s1.active_seconds, 0.0);
  EXPECT_GT(s1.requests_per_sec(), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto s2 = svc.stats();
  // The active window froze at the last completion, so idling afterwards
  // must not decay the reported throughput (the old cumulative-lifetime
  // bug), while the lifetime wall clock keeps advancing.
  EXPECT_DOUBLE_EQ(s2.active_seconds, s1.active_seconds);
  EXPECT_DOUBLE_EQ(s2.requests_per_sec(), s1.requests_per_sec());
  EXPECT_GT(s2.wall_seconds, s1.wall_seconds);
}

TEST(EvalService, BatchingAmortizesRingConfiguration) {
  // The whole point of submit_batch: one session ring-configures each tower
  // once for the group, so the batched service pays fewer reconfigurations
  // -- and strictly less serial-link time -- than one-request-per-session.
  ServiceFixture f;
  auto run = [&](std::size_t max_batch) {
    ChipFarm farm(1);
    EvalService svc(f.scheme, farm, {Strategy::kBatchPerChip, max_batch});
    auto futures = svc.submit_batch(f.requests);
    for (auto& fu : futures) (void)fu.get();
    svc.drain();
    return svc.stats();
  };
  const auto batched = run(f.requests.size());
  const auto serial = run(1);
  const std::size_t towers = f.scheme.context().ext_basis().size();
  EXPECT_EQ(batched.per_chip[0].ring_configs, towers);
  EXPECT_EQ(serial.per_chip[0].ring_configs, towers * f.requests.size());
  EXPECT_LT(batched.io_seconds, serial.io_seconds);
  EXPECT_GT(batched.simulated_requests_per_sec(),
            serial.simulated_requests_per_sec());
}

TEST(EvalService, ShutdownDrainsTheQueue) {
  ServiceFixture f;
  ChipFarm farm(2);
  std::vector<std::future<bfv::Ciphertext>> futures;
  {
    EvalService svc(f.scheme, farm, {Strategy::kShardTowers, 2});
    futures = svc.submit_batch(f.requests);
    svc.shutdown();  // must complete every accepted request first
    EXPECT_THROW((void)svc.submit({f.requests[0].a, f.requests[0].b}),
                 std::runtime_error);
  }
  for (std::size_t i = 0; i < futures.size(); ++i)
    expect_bit_exact(futures[i].get(), f.expected[i]);
}

TEST(EvalService, MalformedRequestsAreRejectedWithoutPoisoningOthers) {
  ServiceFixture f;
  ChipFarm farm(2);
  EvalService svc(f.scheme, farm, {Strategy::kBatchPerChip, 8});
  // 3-element ciphertext (un-relinearized product) is rejected at submit.
  EXPECT_THROW((void)svc.submit({f.expected[0], f.requests[0].b}),
               std::invalid_argument);
  auto ok = svc.submit({f.requests[1].a, f.requests[1].b});
  expect_bit_exact(ok.get(), f.expected[1]);
  svc.drain();  // the round's stats post after its promises are fulfilled
  const auto s = svc.stats();
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(ChipFarm, RejectsEmptyFarmAndOversizedRing) {
  EXPECT_THROW(ChipFarm(0), std::invalid_argument);
  bfv::Bfv big(bfv::BfvParams::create(1u << 14, {54, 55}, 65537), 1);
  ChipFarm farm(1);  // bank_words = 2^14 -> n up to 2^13 in 2 slots
  EXPECT_THROW(EvalService(big, farm), std::invalid_argument);
}

}  // namespace
}  // namespace cofhee::service
