// Observability for the evaluation service (service/eval_service.hpp).
//
// Three time axes coexist and every field below names its own:
//
//  * *simulated* seconds come from the chip model's cycle counter, the
//    serial links' byte accounting, and the service's deterministic host
//    cost model (kHostCoeffOpsPerSec in eval_service.cpp).  They are
//    machine-independent -- the numbers bench_service_throughput
//    regression-tracks.
//  * *wall* seconds are host wall-clock (how long the scheduler actually
//    ran; machine-dependent, never regression-tracked).
//  * the *pipeline model* replays the dispatcher's actual schedule on the
//    simulated axis: one virtual host resource, one virtual chip-farm
//    resource, advanced in the order phases really executed.  With
//    pipelined rounds (ServiceOptions::pipeline_depth > 1), host phases
//    hide under chip phases and pipeline_span_seconds <
//    serial_span_seconds; at pipeline_depth = 1 the two spans coincide.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "driver/session_counters.hpp"

namespace cofhee::service {

/// Per-chip accounting.  A "session" is one continuous occupancy of a chip
/// by a request group: its towers are ring-configured once each and then
/// shared by every request in the group (the transport amortization the
/// service exists for).  The inherited session counters
/// (driver/session_counters.hpp) sum this chip's sessions.
struct ChipStats : driver::SessionCounters {
  /// Sessions (continuous chip occupancies) this chip ran.  Count.
  std::uint64_t sessions = 0;
  /// Work items (whole requests under kBatchPerChip, tower shards under
  /// kShardTowers) the Placer assigned to this chip.  Count.
  std::uint64_t placements = 0;
  /// Requests this chip touched (a sharded request counts on every chip
  /// serving one of its towers).  Count.
  std::uint64_t requests = 0;
  /// Algorithm-3 (ciphertext-tensor) executions.  Count.
  std::uint64_t tower_runs = 0;
  /// Per-(request, Q-tower) relinearization runs (each bundling this
  /// tower's key-switch products).  Count.
  std::uint64_t relin_tower_runs = 0;
  /// Ring reconfigurations paid (register writes + twiddle preload).  Count.
  std::uint64_t ring_configs = 0;
  /// Typed faults (ChipFaultError / LinkTimeoutError) sessions or probes on
  /// this chip surfaced to the service.  Count.
  std::uint64_t faults = 0;
  /// Times the service quarantined this chip (after
  /// ServiceOptions::quarantine_after consecutive faults).  Count.
  std::uint64_t quarantines = 0;
  /// Times a health probe passed and the chip was re-admitted from
  /// quarantine.  Count.
  std::uint64_t readmissions = 0;
  /// Health probes sent to this chip (while quarantined).  Count.
  std::uint64_t probes = 0;
  /// Whether the chip is quarantined (receiving probes, not sessions) at
  /// sampling time.
  bool quarantined = false;
  /// Measured seconds per work item: EWMA over this chip's completed
  /// sessions, seeded from the modeled unit cost.  Feeds placement, so a
  /// degraded chip (injected stalls inflating its link time) sheds load.
  /// Seconds (simulated) per item.
  double ewma_unit_cost = 0;
  /// PE cycles at the configured clock.  Cycles.
  std::uint64_t chip_cycles = 0;
  /// Simulated chip compute (chip_cycles at the modeled clock).  Seconds
  /// (simulated).
  double compute_seconds = 0;
  /// Host wall-clock spent inside this chip's sessions.  Seconds (wall).
  double busy_wall_seconds = 0;

  /// Simulated time this chip's serial link + PE were owned by sessions.
  /// Seconds (simulated).
  [[nodiscard]] double simulated_seconds() const noexcept {
    return io_seconds + compute_seconds;
  }
};

/// Order statistics of request latencies (submit to completion), computed
/// over a bounded window of the most recent samples.  Seconds (wall,
/// machine-dependent -- observability only, never regression-tracked).
struct LatencyStats {
  /// Samples ever recorded (not bounded by the window).  Count.
  std::uint64_t count = 0;
  /// Median latency over the retained window.  Seconds (wall).
  double p50 = 0;
  /// 95th-percentile latency over the retained window.  Seconds (wall).
  double p95 = 0;
  /// 99th-percentile latency over the retained window.  Seconds (wall).
  double p99 = 0;
  /// Largest latency ever recorded.  Seconds (wall).
  double max_seconds = 0;
};

/// Bounded sample window feeding LatencyStats: a fixed-capacity ring that
/// overwrites the oldest sample, so long-lived services track recent
/// behavior at O(1) memory per class/tenant.
class LatencyWindow {
 public:
  /// Record one latency sample.  Seconds.
  void record(double seconds) {
    ++count_;
    max_ = std::max(max_, seconds);
    if (samples_.size() < kCapacity) {
      samples_.push_back(seconds);
    } else {
      samples_[next_] = seconds;
      next_ = (next_ + 1) % kCapacity;
    }
  }

  /// Percentile snapshot of the retained window.  O(N) selection, not a
  /// full sort: stats() polls snapshot every class and tenant window, so a
  /// sort here made monitoring O(tenants x N log N) per scrape.  One scratch
  /// copy serves all three ranks; ranks are selected in ascending order so
  /// each nth_element only partitions the suffix left unresolved by the
  /// previous one (everything before the last selected rank is already <=
  /// that rank's value).
  [[nodiscard]] LatencyStats snapshot() const {
    LatencyStats s;
    s.count = count_;
    s.max_seconds = max_;
    if (samples_.empty()) return s;
    std::vector<double> scratch = samples_;
    std::size_t done = 0;  // prefix [0, done) is already partitioned correctly
    const auto at = [&](double q) {
      const auto i = static_cast<std::size_t>(q * static_cast<double>(scratch.size() - 1));
      if (i >= done) {
        std::nth_element(scratch.begin() + static_cast<std::ptrdiff_t>(done),
                         scratch.begin() + static_cast<std::ptrdiff_t>(i),
                         scratch.end());
        done = i;
      }
      return scratch[i];
    };
    s.p50 = at(0.50);
    s.p95 = at(0.95);
    s.p99 = at(0.99);
    return s;
  }

 private:
  static constexpr std::size_t kCapacity = 4096;
  std::vector<double> samples_;
  std::size_t next_ = 0;
  std::uint64_t count_ = 0;
  double max_ = 0;
};

/// Per-priority-class accounting (index = static_cast<size_t>(Priority)).
struct ClassStats {
  /// Requests accepted into this class.  Count.
  std::uint64_t submitted = 0;
  /// Requests the scheduler handed to a round.  Count.
  std::uint64_t dispatched = 0;
  /// Requests completed with a value.  Count.
  std::uint64_t completed = 0;
  /// Requests completed with an exception.  Count.
  std::uint64_t failed = 0;
  /// Picks the starvation bound forced for this class out of priority
  /// order (i.e. this class was force-served past waiting higher-priority
  /// work).  Count.
  std::uint64_t forced_picks = 0;
  /// Requests waiting in the queue for this class at sampling time (not
  /// counting in-flight rounds).  Count.
  std::uint64_t queued = 0;
  /// Submit-to-completion latency percentiles.  Seconds (wall).
  LatencyStats latency;
};

/// Sentinel tenant id that aggregates every tenant beyond the tracking cap
/// (ServiceOptions::max_tracked_tenants), so per-tenant accounting stays
/// bounded no matter how many distinct ids traffic carries.
inline constexpr std::uint64_t kOverflowTenantId = ~std::uint64_t{0};

/// Per-tenant accounting inside the fairness scheduler.
struct TenantStats {
  /// Tenant id (SubmitOptions::tenant).
  std::uint64_t tenant = 0;
  /// Latest submitted DRR weight; 0 for the kOverflowTenantId bucket,
  /// whose traffic mixes tenants of different weights.  Dimensionless.
  std::uint32_t weight = 1;
  /// Requests accepted from this tenant.  Count.
  std::uint64_t submitted = 0;
  /// Requests completed with a value.  Count.
  std::uint64_t completed = 0;
  /// Requests completed with an exception.  Count.
  std::uint64_t failed = 0;
  /// Requests rejected at admission -- rate limit, pending quota, queue
  /// full or oversized batch (see ServiceStats::rejected_*).  These never
  /// entered the queue, so they are disjoint from submitted.  Count.
  std::uint64_t rejected = 0;
  /// Submit-to-completion latency percentiles.  Seconds (wall).
  LatencyStats latency;
};

/// Aggregate service counters.  Snapshot-consistent when obtained through
/// EvalService::stats().  The inherited session counters
/// (driver/session_counters.hpp) are summed over chips, so each equals the
/// sum of the same field over per_chip.
struct ServiceStats : driver::SessionCounters {
  /// Requests accepted by submit()/submit_batch().  Count.
  std::uint64_t submitted = 0;
  /// Requests whose future was fulfilled with a value.  Count.
  std::uint64_t completed = 0;
  /// Requests whose future was fulfilled with an exception.  Count.
  std::uint64_t failed = 0;
  /// Dispatcher rounds (coalesced batches).  Count.
  std::uint64_t rounds = 0;
  /// Rounds whose host-side preparation ran while a previous round's chip
  /// stage was still in flight (double-buffering engaged).  Count.
  std::uint64_t overlapped_rounds = 0;
  /// Sum of per-chip sessions.  Count.
  std::uint64_t sessions = 0;
  /// Injected faults the chips' link injectors actually fired (corrupt
  /// frames, timed-out stalls, kill events -- sub-timeout stalls that merely
  /// slowed a transaction count too), summed over attached injectors.  Count.
  std::uint64_t faults_injected = 0;
  /// Intra-stage retries: a chip's share of a stage faulted and its items
  /// were re-placed (usually onto other chips) within the same round.  Count.
  std::uint64_t retries = 0;
  /// Round-level requeues: a request's round faulted after stage retries
  /// were exhausted and the request went back into the queue for a fresh
  /// round (bounded by ServiceOptions::request_retries).  Count.
  std::uint64_t requeues = 0;
  /// Chips quarantined after ServiceOptions::quarantine_after consecutive
  /// faults, summed over chips (a chip re-quarantined later counts again).
  /// Count.
  std::uint64_t quarantines = 0;
  /// Quarantined chips re-admitted after a passing health probe, summed
  /// over chips.  Count.
  std::uint64_t readmissions = 0;
  /// Health probes sent to quarantined chips, summed over chips.  Count.
  std::uint64_t probes = 0;
  /// Probes that faulted or read back the wrong word (chip stays
  /// quarantined).  Count.
  std::uint64_t probe_failures = 0;
  /// Stage attempts abandoned because a chip's share exceeded the modeled
  /// stage timeout (ServiceOptions::stage_timeout_seconds).  Count.
  std::uint64_t stage_timeouts = 0;
  /// Picks the starvation bound forced out of priority order, summed over
  /// classes.  Count.
  std::uint64_t forced_picks = 0;
  /// Largest consecutive-pick deficit any waiting class ever reached; with
  /// a non-zero ServiceOptions::starvation_bound B this never exceeds
  /// B + kNumPriorities - 2 (only one starved class can be force-served
  /// per pick).  Count.
  std::uint64_t max_class_skip = 0;
  /// Requests rejected at admission because the tenant's token bucket ran
  /// dry (TenantLimits::rate_per_sec; the submit threw RateLimitedError).
  /// Count.
  std::uint64_t rejected_rate_limited = 0;
  /// Requests rejected because admitting them would exceed the tenant's
  /// pending quota (TenantLimits::max_pending; TenantQuotaError).  Count.
  std::uint64_t rejected_quota = 0;
  /// Requests rejected because the service's bounded queue (queued + in
  /// flight) was at capacity (ServiceOptions::max_queue; QueueFullError).
  /// Count.
  std::uint64_t rejected_queue_full = 0;
  /// Requests rejected because their batch exceeded max_queue outright and
  /// could never be admitted (BatchTooLargeError).  Count.
  std::uint64_t rejected_batch_too_large = 0;
  /// Requests pending (queued + in flight) at sampling time.  Count.
  std::size_t queue_depth = 0;
  /// Largest pending depth (queued + in flight) ever observed at submit
  /// time; with a non-zero ServiceOptions::max_queue this never exceeds
  /// the bound.  Count.
  std::size_t peak_queue_depth = 0;
  /// Simulated chip compute, summed over chips.  Seconds (simulated).
  double compute_seconds = 0;
  /// Modeled host time in pre-chip phases (base extension, relin digit
  /// decomposition).  Seconds (simulated, host cost model).
  double sim_host_prep_seconds = 0;
  /// Modeled host time in post-chip phases (tensor reassembly + t/q
  /// rounding, relin stacking).  Seconds (simulated, host cost model).
  double sim_host_finish_seconds = 0;
  /// Sum over rounds of each round's chip-stage span: the busiest chip's
  /// simulated session time plus modeled host work executed inside the
  /// stage (mult-relin mid-round assembly/decompose, key-switch
  /// accumulation).  Seconds (simulated).
  double sim_chip_round_seconds = 0;
  /// Pipeline-model makespan of the schedule as actually executed:
  /// double-buffered rounds hide host phases under chip phases here.
  /// Seconds (simulated).
  double pipeline_span_seconds = 0;
  /// Pipeline-model makespan had every phase run back-to-back
  /// (prep + chip + finish summed per round).  Seconds (simulated).
  double serial_span_seconds = 0;
  /// Host wall-clock spent in host phases while a chip stage was in flight
  /// (the measured, machine-dependent counterpart of the model's overlap).
  /// Seconds (wall).
  double overlap_wall_seconds = 0;
  /// Wall-clock since service construction.  Seconds (wall).
  double wall_seconds = 0;
  /// Active window on the monotonic clock: first accepted submit to the
  /// last completion (or to the sampling instant while work is in flight).
  /// 0 before any request is accepted.  Seconds (wall).
  double active_seconds = 0;
  /// Per-chip breakdowns, indexed by ChipFarm chip index.
  std::vector<ChipStats> per_chip;
  /// Per-priority-class breakdowns, indexed by static_cast<size_t>(Priority)
  /// (always kNumPriorities entries).
  std::vector<ClassStats> per_class;
  /// Per-tenant breakdowns, sorted by tenant id.  At most
  /// ServiceOptions::max_tracked_tenants distinct ids are tracked; traffic
  /// from later ids aggregates under kOverflowTenantId (always the last
  /// entry when present, since the sentinel is the largest id).
  std::vector<TenantStats> per_tenant;

  /// Simulated farm makespan: the busiest chip's serial-link + compute
  /// time.  Chips run concurrently, so this is the model's answer to "how
  /// long did the chip side of serving these requests take".  Seconds
  /// (simulated).
  [[nodiscard]] double simulated_seconds() const noexcept {
    double m = 0;
    for (const auto& c : per_chip)
      if (c.simulated_seconds() > m) m = c.simulated_seconds();
    return m;
  }

  /// Deterministic chip-side throughput: completed requests over the
  /// simulated farm makespan.  Requests per second (simulated).
  [[nodiscard]] double simulated_requests_per_sec() const noexcept {
    const double s = simulated_seconds();
    return s > 0 ? static_cast<double>(completed) / s : 0.0;
  }

  /// Deterministic end-to-end throughput: completed requests over the
  /// pipeline-model makespan (host + chip resources, overlapped the way the
  /// dispatcher actually scheduled them) -- the double-buffering headline
  /// number bench_service_throughput regression-tracks.  Requests per
  /// second (simulated).
  [[nodiscard]] double e2e_requests_per_sec() const noexcept {
    return pipeline_span_seconds > 0
               ? static_cast<double>(completed) / pipeline_span_seconds
               : 0.0;
  }

  /// Simulated time double-buffering removed from the serial schedule.
  /// Seconds (simulated).
  [[nodiscard]] double overlap_saved_seconds() const noexcept {
    return std::max(0.0, serial_span_seconds - pipeline_span_seconds);
  }

  /// Fraction of the pipeline-model span the chip resource was busy --
  /// 1.0 means host work is fully hidden.  Dimensionless in [0, 1].
  [[nodiscard]] double chip_occupancy() const noexcept {
    return pipeline_span_seconds > 0
               ? sim_chip_round_seconds / pipeline_span_seconds
               : 0.0;
  }

  /// Wall-clock throughput over the active window (first accepted submit to
  /// last completion on the monotonic clock), so an idle service's rate does
  /// not decay with lifetime.  Requests per second (wall,
  /// machine-dependent).
  [[nodiscard]] double requests_per_sec() const noexcept {
    return active_seconds > 0 ? static_cast<double>(completed) / active_seconds
                              : 0.0;
  }

  /// Fraction of the active window (not the service lifetime -- idling
  /// after the traffic must not decay this, same as requests_per_sec())
  /// chip `i`'s sessions were running.  Dimensionless.
  [[nodiscard]] double utilization(std::size_t i) const {
    return active_seconds > 0 ? per_chip.at(i).busy_wall_seconds / active_seconds
                              : 0.0;
  }
};

}  // namespace cofhee::service
