// obs::MetricsRegistry unit battery: histogram bucket exactness against a
// sorted reference, lock-free concurrency, the Prometheus text exposition
// shape, and the ServiceStats -> registry export mapping.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/session_counters.hpp"
#include "obs/service_export.hpp"
#include "service/request_queue.hpp"
#include "service/service_stats.hpp"

namespace cofhee::obs {
namespace {

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketCountsMatchSortedReference) {
  // Deterministic sample set spanning below, on and above every bound;
  // the histogram's raw per-bucket counts must equal what brute-force
  // classification of the sorted samples yields.
  const std::vector<double> bounds = {0.001, 0.01, 0.1, 1.0, 10.0};
  Histogram h(bounds);
  std::mt19937_64 rng(20230907);
  std::uniform_real_distribution<double> mag(-4.0, 2.0);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) samples.push_back(std::pow(10.0, mag(rng)));
  for (double b : bounds) samples.push_back(b);  // exactly-on-bound samples
  double sum = 0;
  for (double v : samples) {
    h.observe(v);
    sum += v;
  }

  std::vector<std::uint64_t> want(bounds.size() + 1, 0);
  for (double v : samples) {
    std::size_t i = 0;
    while (i < bounds.size() && v > bounds[i]) ++i;  // le: inclusive upper
    ++want[i];
  }
  for (std::size_t i = 0; i <= bounds.size(); ++i)
    EXPECT_EQ(h.bucket_count(i), want[i]) << "bucket " << i;
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_NEAR(h.sum(), sum, 1e-9 * std::abs(sum));
}

TEST(Histogram, ConcurrentObservesLoseNothing) {
  Histogram h({1.0, 2.0, 3.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(static_cast<double>((t + i) % 4) + 0.5);
    });
  for (auto& th : ts) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= 3; ++i) total += h.bucket_count(i);
  EXPECT_EQ(total, h.count());
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("cofhee_x_total", "x");
  EXPECT_THROW(reg.gauge("cofhee_x_total", "x"), std::logic_error);
  EXPECT_THROW(reg.histogram("cofhee_x_total", "x", {1.0}), std::logic_error);
}

TEST(MetricsRegistry, InstrumentsAreStableAndLabeled) {
  MetricsRegistry reg;
  Counter& a = reg.counter("cofhee_ops_total", "ops", {{"chip", "0"}});
  Counter& b = reg.counter("cofhee_ops_total", "ops", {{"chip", "1"}});
  Counter& a2 = reg.counter("cofhee_ops_total", "ops", {{"chip", "0"}});
  EXPECT_EQ(&a, &a2);
  EXPECT_NE(&a, &b);
  a.add(2);
  b.inc();
  EXPECT_DOUBLE_EQ(a.value(), 2.0);
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
}

TEST(MetricsRegistry, RenderEmitsPrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("cofhee_requests_total", "Requests accepted.").set(42);
  reg.gauge("cofhee_queue_depth", "Queue depth.").set(3);
  Histogram& h = reg.histogram("cofhee_latency_seconds", "Latency.",
                               {0.1, 1.0}, {{"class", "normal"}});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string text = reg.render_text();

  EXPECT_NE(text.find("# HELP cofhee_requests_total Requests accepted.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cofhee_requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("cofhee_requests_total 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cofhee_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cofhee_latency_seconds histogram\n"),
            std::string::npos);
  // Buckets are CUMULATIVE in the exposition and close with +Inf == count.
  EXPECT_NE(text.find("cofhee_latency_seconds_bucket{class=\"normal\",le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_latency_seconds_bucket{class=\"normal\",le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("cofhee_latency_seconds_bucket{class=\"normal\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("cofhee_latency_seconds_count{class=\"normal\"} 3"),
            std::string::npos);
  // Families render sorted by name: latency < queue_depth < requests.
  EXPECT_LT(text.find("cofhee_latency_seconds"), text.find("cofhee_queue_depth"));
  EXPECT_LT(text.find("cofhee_queue_depth"), text.find("cofhee_requests_total"));
}

TEST(ServiceExport, MapsStatsOntoRegistry) {
  service::ServiceStats st;
  st.per_chip.resize(2);
  // Every session-counter row gets distinct service and chip-0 values.
  int row = 0;
#define COFHEE_SET_ROW(name, type, help) \
  ++row;                                 \
  st.name = static_cast<type>(10 + row); \
  st.per_chip[0].name = static_cast<type>(20 + row);
  COFHEE_SESSION_COUNTERS(COFHEE_SET_ROW)
#undef COFHEE_SET_ROW
  st.submitted = 7;
  st.completed = 6;
  st.failed = 1;
  st.io_seconds = 1.25;
  st.compute_seconds = 0.5;
  st.queue_depth = 2;
  st.per_chip[0].ewma_unit_cost = 0.125;
  st.per_chip[1].quarantined = true;
  st.per_chip[1].faults = 3;
  st.per_class.resize(service::kNumPriorities);
  st.per_class[0].submitted = 4;  // high
  st.per_class[0].queued = 2;
  st.per_tenant.push_back({});
  st.per_tenant[0].tenant = 9;
  st.per_tenant[0].weight = 2;
  st.per_tenant[0].submitted = 7;

  MetricsRegistry reg;
  export_service_stats(st, reg);
  const std::string text = reg.render_text();
  EXPECT_NE(text.find("cofhee_service_requests_submitted_total 7"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_service_io_seconds_total 1.25"), std::string::npos);
  EXPECT_NE(text.find("cofhee_chip_ewma_unit_cost_seconds{chip=\"0\"} 0.125"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_chip_quarantined{chip=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("cofhee_chip_faults_total{chip=\"1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("cofhee_class_submitted_total{class=\"high\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_class_queue_depth{class=\"high\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cofhee_tenant_weight{tenant=\"9\"} 2"), std::string::npos);
  const auto rendered = [](double v) {
    std::ostringstream ss;
    ss << std::setprecision(15) << v;
    return ss.str();
  };
#define COFHEE_EXPECT_ROW(name, type, help)                                      \
  EXPECT_NE(text.find("\ncofhee_service_" #name "_total " +                      \
                      rendered(static_cast<double>(st.name)) + "\n"),            \
            std::string::npos)                                                   \
      << #name;                                                                  \
  EXPECT_NE(text.find("\ncofhee_chip_" #name "_total{chip=\"0\"} " +              \
                      rendered(static_cast<double>(st.per_chip[0].name)) + "\n"), \
            std::string::npos)                                                   \
      << #name;
  COFHEE_SESSION_COUNTERS(COFHEE_EXPECT_ROW)
#undef COFHEE_EXPECT_ROW

  // Re-export after the counters moved: set() semantics overwrite, so the
  // registry tracks the latest snapshot instead of double counting.
  st.submitted = 9;
  export_service_stats(st, reg);
  const std::string text2 = reg.render_text();
  EXPECT_NE(text2.find("cofhee_service_requests_submitted_total 9"),
            std::string::npos);
  EXPECT_EQ(text2.find("cofhee_service_requests_submitted_total 7"),
            std::string::npos);
}

}  // namespace
}  // namespace cofhee::obs
