// Edge cases the differential and stress suites skip: lifecycle misuse
// (submit after shutdown), degenerate farm shapes, queue-capacity limits,
// and relinearization misconfiguration.  Every failure mode must be a clean
// error -- an exception at submit or on the future -- never a hang, and
// never poison for unrelated requests.
#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <vector>

#include "bfv/encoder.hpp"
#include "service/eval_service.hpp"

namespace cofhee::service {
namespace {

struct EdgeFixture {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), /*seed=*/31};
  bfv::SecretKey sk = scheme.keygen_secret();
  bfv::PublicKey pk = scheme.keygen_public(sk);
  bfv::RelinKeys rk = scheme.keygen_relin(sk, 16);
  bfv::IntegerEncoder enc{scheme.context()};

  EvalRequest mult_request(std::int64_t x, std::int64_t y) const {
    bfv::Bfv& s = const_cast<bfv::Bfv&>(scheme);
    return {s.encrypt(pk, enc.encode(x)), s.encrypt(pk, enc.encode(y)),
            RequestKind::kEvalMult};
  }
};

TEST(ServiceEdgeCases, SubmitAfterShutdownThrowsCleanly) {
  EdgeFixture f;
  ChipFarm farm(1);
  EvalService svc(f.scheme, farm);
  const auto req = f.mult_request(3, 4);
  auto fu = svc.submit(req);
  svc.shutdown();
  // Accepted work completed through the drain...
  EXPECT_EQ(fu.get().size(), 3u);
  // ...and both entry points reject new work from now on.
  EXPECT_THROW((void)svc.submit(req), std::runtime_error);
  EXPECT_THROW((void)svc.submit_batch({req}), std::runtime_error);
  // Idempotent: a second shutdown (and the destructor after it) is a no-op.
  svc.shutdown();
  EXPECT_EQ(svc.stats().completed, 1u);
}

TEST(ServiceEdgeCases, ZeroChipFarmIsRejectedAtConstruction) {
  EXPECT_THROW(ChipFarm(0), std::invalid_argument);
}

TEST(ServiceEdgeCases, QueueCapacityBoundsAdmission) {
  EdgeFixture f;
  ChipFarm farm(1);
  ServiceOptions opts;
  opts.max_batch = 2;
  opts.max_queue = 4;
  EvalService svc(f.scheme, farm, opts);
  const auto req = f.mult_request(2, 5);

  // A batch that could never fit is a typed admission error (distinct from
  // the transient QueueFullError -- splitting, not retrying, fixes it).
  std::vector<EvalRequest> oversized(opts.max_queue + 1, req);
  EXPECT_THROW((void)svc.submit_batch(oversized), BatchTooLargeError);
  EXPECT_EQ(svc.stats().rejected_batch_too_large, opts.max_queue + 1);

  // Fill-to-capacity is admitted and eventually drains; while the queue is
  // full a further submit is a clean transient failure.
  std::vector<EvalRequest> full(opts.max_queue, req);
  std::vector<std::future<bfv::Ciphertext>> futures;
  bool saw_queue_full = false;
  for (int attempt = 0; attempt < 64 && futures.empty(); ++attempt) {
    try {
      futures = svc.submit_batch(full);
    } catch (const std::runtime_error&) {
      saw_queue_full = true;  // dispatcher mid-drain; retry
    }
  }
  ASSERT_EQ(futures.size(), full.size());
  (void)saw_queue_full;
  for (auto& fu : futures) EXPECT_EQ(fu.get().size(), 3u);
  svc.drain();
  EXPECT_EQ(svc.stats().failed, 0u);
}

TEST(ServiceEdgeCases, QueueFullIsATransientRuntimeError) {
  EdgeFixture f;
  ChipFarm farm(1);
  ServiceOptions opts;
  opts.max_queue = 1;
  EvalService svc(f.scheme, farm, opts);
  const auto req = f.mult_request(1, 6);
  // Hammer the 1-deep queue: every submit either lands or reports
  // queue-full; nothing hangs and everything admitted completes.
  std::vector<std::future<bfv::Ciphertext>> futures;
  std::size_t rejected = 0;
  while (futures.size() < 8) {
    try {
      futures.push_back(svc.submit(req));
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  for (auto& fu : futures) EXPECT_EQ(fu.get().size(), 3u);
  svc.drain();
  EXPECT_EQ(svc.stats().completed, 8u);
}

TEST(ServiceEdgeCases, MismatchedRelinKeyLevelIsRejectedAtConstruction) {
  EdgeFixture f;
  ChipFarm farm(2);
  // Keys generated by a one-tower scheme: wrong level for the two-tower
  // fixture -- rejected before any request can hang on them.
  bfv::Bfv other(bfv::BfvParams::create(64, {40}, 65537), 7);
  const bfv::RelinKeys wrong = other.keygen_relin(other.keygen_secret(), 16);
  ServiceOptions opts;
  opts.relin_keys = &wrong;
  EXPECT_THROW(EvalService(f.scheme, farm, opts), std::invalid_argument);

  // Same scheme but the digit ladder truncated below log2(Q): high digits
  // would be dropped silently, so it is rejected too.
  bfv::RelinKeys truncated = f.rk;
  truncated.keys.resize(1);
  opts.relin_keys = &truncated;
  EXPECT_THROW(EvalService(f.scheme, farm, opts), std::invalid_argument);
}

TEST(ServiceEdgeCases, RelinRequestsNeedKeysAndThreeElements) {
  EdgeFixture f;
  ChipFarm farm(1);
  const auto mult = f.mult_request(2, 2);
  {
    // No keys configured: any relin kind is rejected at submit.
    EvalService svc(f.scheme, farm);
    EXPECT_THROW((void)svc.submit({mult.a, mult.b, RequestKind::kMultRelin}),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)svc.submit({f.scheme.multiply(mult.a, mult.b), {}, RequestKind::kRelinearize}),
        std::invalid_argument);
  }
  {
    ServiceOptions opts;
    opts.relin_keys = &f.rk;
    EvalService svc(f.scheme, farm, opts);
    // kRelinearize wants a 3-element input; kMultRelin wants 2-element ones.
    EXPECT_THROW((void)svc.submit({mult.a, {}, RequestKind::kRelinearize}),
                 std::invalid_argument);
    EXPECT_THROW((void)svc.submit({f.scheme.multiply(mult.a, mult.b), mult.b,
                                   RequestKind::kMultRelin}),
                 std::invalid_argument);
    // A malformed neighbor never poisons valid traffic in the same round.
    auto good = svc.submit({mult.a, mult.b, RequestKind::kMultRelin});
    EXPECT_EQ(good.get().size(), 2u);
  }
}

TEST(ServiceEdgeCases, ShutdownDrainsThePipelinedSession) {
  // With overlap on and single-request rounds, shutdown must wait for both
  // the queued rounds and the in-flight double-buffered session.
  EdgeFixture f;
  ChipFarm farm(1);
  ServiceOptions opts;
  opts.max_batch = 1;
  opts.relin_keys = &f.rk;
  std::vector<std::future<bfv::Ciphertext>> futures;
  {
    EvalService svc(f.scheme, farm, opts);
    const auto req = f.mult_request(3, 3);
    for (int i = 0; i < 4; ++i)
      futures.push_back(svc.submit({req.a, req.b, RequestKind::kMultRelin}));
    svc.shutdown();
  }
  for (auto& fu : futures) EXPECT_EQ(fu.get().size(), 2u);
}

}  // namespace
}  // namespace cofhee::service
