// Front-door soak: many concurrent connections hammering one EvalServer
// with mixed tenants, priorities and batch sizes while one tenant runs
// deliberately over its rate limit.  Every request must settle exactly
// once -- as a bit-valid result or a typed rejection -- with no hangs, no
// lost replies and no data races (this suite rides the TSan CI lane), and
// the books must balance: client-side tallies equal the server's
// ServiceStats.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bfv/encoder.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/eval_service.hpp"

namespace cofhee::net {
namespace {

TEST(NetSoak, ConcurrentMixedTenantsSettleEveryRequest) {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), /*seed=*/71};
  const bfv::SecretKey sk = scheme.keygen_secret();
  const bfv::PublicKey pk = scheme.keygen_public(sk);
  const bfv::RelinKeys rk = scheme.keygen_relin(sk, 16);
  bfv::IntegerEncoder enc{scheme.context()};

  service::ChipFarm farm(2);
  service::ServiceOptions sopts;
  sopts.relin_keys = &rk;
  // Tenant 99 is throttled hard: at most 4 requests ever (vanishing
  // refill), everyone else is free.
  sopts.tenancy.per_tenant[99] =
      service::TenantLimits{/*rate_per_sec=*/1e-9, /*burst=*/4, /*max_pending=*/0};
  service::EvalService svc(scheme, farm, sopts);
  EvalServer server(svc);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 5;
  // Encrypt every request up front on this thread: Bfv::encrypt draws from
  // the scheme's shared RNG and is deliberately not thread-safe (the
  // header says sampling stays serial).  The threads below only submit,
  // decrypt (const) and decode.
  struct Planned {
    std::vector<service::EvalRequest> batch;
    std::int64_t expected;
  };
  std::vector<std::vector<Planned>> plans(kClients);
  for (int c = 0; c < kClients; ++c)
    for (int i = 0; i < kRequestsPerClient; ++i) {
      const std::int64_t x = 2 + c, y = 3 + i;
      plans[c].push_back(
          {{{scheme.encrypt(pk, enc.encode(x)), scheme.encrypt(pk, enc.encode(y)),
             service::RequestKind::kMultRelin}},
           x * y});
    }
  std::atomic<std::uint64_t> ok_results{0};
  std::atomic<std::uint64_t> rate_rejections{0};
  std::atomic<std::uint64_t> wrong_answers{0};
  std::atomic<std::uint64_t> unexpected_errors{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        // Client c alternates tenants and priorities; clients 0 and 1
        // drive the throttled tenant 99.
        const bool throttled = c < 2;
        service::SubmitOptions so;
        so.tenant = throttled ? 99 : static_cast<std::uint64_t>(c);
        so.priority = static_cast<service::Priority>(c % 3);
        so.weight = 1 + static_cast<std::uint32_t>(c % 4);
        EvalClient cli("127.0.0.1", server.port());
        cli.hello(so);
        for (const Planned& plan : plans[c]) {
          try {
            const auto results = cli.submit_batch(plan.batch);
            for (const auto& item : results) {
              if (!item.ok) {
                unexpected_errors.fetch_add(1);
              } else if (enc.decode(scheme.decrypt(sk, item.value)) != plan.expected) {
                wrong_answers.fetch_add(1);
              } else {
                ok_results.fetch_add(1);
              }
            }
          } catch (const RejectError& e) {
            if (e.code() == RejectCode::kRateLimited && throttled)
              rate_rejections.fetch_add(1);
            else
              unexpected_errors.fetch_add(1);
          }
        }
        cli.bye();
      } catch (const std::exception&) {
        unexpected_errors.fetch_add(kRequestsPerClient);
      }
    });
  }
  for (auto& t : clients) t.join();
  svc.drain();

  // The books balance: every request settled exactly once and the
  // throttled tenant saw exactly its burst admitted.
  EXPECT_EQ(wrong_answers.load(), 0u);
  EXPECT_EQ(unexpected_errors.load(), 0u);
  EXPECT_EQ(ok_results.load() + rate_rejections.load(),
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  // Tenant 99: 2 clients x 5 requests against a burst of 4.
  EXPECT_EQ(rate_rejections.load(), 6u);

  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, ok_results.load());
  EXPECT_EQ(st.rejected_rate_limited, rate_rejections.load());
  EXPECT_EQ(st.failed, 0u);

  server.stop();  // joins every session thread -> counters are final
  const NetServerStats ns = server.stats();
  EXPECT_EQ(ns.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(ns.rejects_sent, rate_rejections.load());
  EXPECT_EQ(ns.connections_active, 0u);
}

std::ptrdiff_t task_count() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

double vmsize_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmSize:", 0) == 0) return std::stod(line.substr(7)) / 1024.0;
  return 0.0;
}

// Every connection gets a session thread; the accept loop joins finished
// ones before it serves the next connection.  Unjoined, each exited thread
// kept its stack mapped (8 MB of VmSize apiece) until stop().
TEST(NetSoak, SequentialScrapesReapTheirSessionThreads) {
  bfv::Bfv scheme{bfv::BfvParams::test_tiny(64), /*seed=*/72};
  service::ChipFarm farm(1);
  service::EvalService svc(scheme, farm, {});
  EvalServer server(svc);
  ASSERT_FALSE(http_get_metrics("127.0.0.1", server.port()).empty());  // warm-up
  const std::ptrdiff_t tasks0 = task_count();
  const double vm0 = vmsize_mb();

  constexpr int kScrapes = 300;
  for (int i = 0; i < kScrapes; ++i)
    ASSERT_FALSE(http_get_metrics("127.0.0.1", server.port()).empty()) << i;

  // The last session (and one still closing) may not be joined yet.
  EXPECT_LE(task_count(), tasks0 + 2);
  EXPECT_LT(vmsize_mb() - vm0, 64.0);
  EXPECT_EQ(server.stats().http_requests, std::uint64_t{kScrapes + 1});
}

}  // namespace
}  // namespace cofhee::net
