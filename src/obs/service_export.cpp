#include "obs/service_export.hpp"

#include <string>

#include "driver/session_counters.hpp"

namespace cofhee::obs {

namespace {

/// Priority label values, indexed like ServiceStats::per_class.
const char* class_label(std::size_t cls) {
  switch (cls) {
    case 0:
      return "high";
    case 1:
      return "normal";
    case 2:
      return "low";
    default:
      return "unknown";
  }
}

std::string tenant_label(std::uint64_t tenant) {
  if (tenant == service::kOverflowTenantId) return "overflow";
  return std::to_string(tenant);
}

/// Latency order statistics as quantile-labeled gauges (the windows keep
/// percentiles, not raw samples, so gauges -- not a histogram -- are the
/// honest exposition).
void export_latency(MetricsRegistry& reg, const std::string& prefix,
                    const Labels& base, const service::LatencyStats& lat) {
  const auto with = [&](const char* k, const std::string& v) {
    Labels l = base;
    l.emplace_back(k, v);
    return l;
  };
  const char* help = "Submit-to-completion latency order statistics "
                     "(wall seconds, bounded recent window).";
  reg.gauge(prefix + "_latency_seconds", help, with("quantile", "0.5")).set(lat.p50);
  reg.gauge(prefix + "_latency_seconds", help, with("quantile", "0.95")).set(lat.p95);
  reg.gauge(prefix + "_latency_seconds", help, with("quantile", "0.99")).set(lat.p99);
  reg.gauge(prefix + "_latency_max_seconds", "Largest latency ever recorded (wall seconds).",
            base)
      .set(lat.max_seconds);
  reg.counter(prefix + "_latency_count_total", "Latency samples recorded.", base)
      .set(static_cast<double>(lat.count));
}

}  // namespace

void export_service_stats(const service::ServiceStats& st, MetricsRegistry& reg) {
  const auto c = [&](const char* name, const char* help, double v) {
    reg.counter(name, help).set(v);
  };
  const auto g = [&](const char* name, const char* help, double v) {
    reg.gauge(name, help).set(v);
  };

  // Service-wide monotonic counts.
  c("cofhee_service_requests_submitted_total", "Requests accepted by submit().",
    static_cast<double>(st.submitted));
  c("cofhee_service_requests_completed_total", "Requests fulfilled with a value.",
    static_cast<double>(st.completed));
  c("cofhee_service_requests_failed_total", "Requests fulfilled with an exception.",
    static_cast<double>(st.failed));
  c("cofhee_service_rounds_total", "Dispatcher rounds (coalesced batches).",
    static_cast<double>(st.rounds));
  c("cofhee_service_overlapped_rounds_total",
    "Rounds whose host prep overlapped a prior chip stage.",
    static_cast<double>(st.overlapped_rounds));
  c("cofhee_service_sessions_total", "Chip sessions, summed over chips.",
    static_cast<double>(st.sessions));
  c("cofhee_service_faults_injected_total", "Injected faults the links fired.",
    static_cast<double>(st.faults_injected));
  c("cofhee_service_retries_total", "Intra-stage retries (items re-placed).",
    static_cast<double>(st.retries));
  c("cofhee_service_requeues_total", "Round-level requeues after exhausted retries.",
    static_cast<double>(st.requeues));
  c("cofhee_service_quarantines_total", "Chips quarantined after consecutive faults.",
    static_cast<double>(st.quarantines));
  c("cofhee_service_readmissions_total", "Quarantined chips re-admitted by a probe.",
    static_cast<double>(st.readmissions));
  c("cofhee_service_probes_total", "Health probes sent to quarantined chips.",
    static_cast<double>(st.probes));
  c("cofhee_service_probe_failures_total", "Probes that faulted or mis-read.",
    static_cast<double>(st.probe_failures));
  c("cofhee_service_stage_timeouts_total",
    "Stage attempts abandoned past the modeled timeout.",
    static_cast<double>(st.stage_timeouts));
  c("cofhee_service_forced_picks_total",
    "Picks the starvation bound forced out of priority order.",
    static_cast<double>(st.forced_picks));
  c("cofhee_service_rejected_rate_limited_total",
    "Requests rejected at admission by a tenant rate limit.",
    static_cast<double>(st.rejected_rate_limited));
  c("cofhee_service_rejected_quota_total",
    "Requests rejected at admission by a tenant pending quota.",
    static_cast<double>(st.rejected_quota));
  c("cofhee_service_rejected_queue_full_total",
    "Requests rejected because queued + in-flight work was at max_queue.",
    static_cast<double>(st.rejected_queue_full));
  c("cofhee_service_rejected_batch_too_large_total",
    "Requests rejected because their batch could never fit the queue.",
    static_cast<double>(st.rejected_batch_too_large));

  // Session counters (driver/session_counters.hpp): one service-wide and
  // one per-chip family per row of the list.
#define COFHEE_EXPORT_SESSION(name, type, help)                              \
  c("cofhee_service_" #name "_total", help, static_cast<double>(st.name)); \
  for (std::size_t i = 0; i < st.per_chip.size(); ++i)                      \
    reg.counter("cofhee_chip_" #name "_total", help,                        \
                {{"chip", std::to_string(i)}})                              \
        .set(static_cast<double>(st.per_chip[i].name));
  COFHEE_SESSION_COUNTERS(COFHEE_EXPORT_SESSION)
#undef COFHEE_EXPORT_SESSION

  // Time totals (the three axes; see service/service_stats.hpp).
  c("cofhee_service_compute_seconds_total",
    "Simulated chip compute, summed over chips.", st.compute_seconds);
  c("cofhee_service_sim_host_prep_seconds_total",
    "Modeled host time in pre-chip phases.", st.sim_host_prep_seconds);
  c("cofhee_service_sim_host_finish_seconds_total",
    "Modeled host time in post-chip phases.", st.sim_host_finish_seconds);
  c("cofhee_service_sim_chip_round_seconds_total",
    "Sum over rounds of each round's chip-stage span.", st.sim_chip_round_seconds);

  // Instantaneous / span gauges.
  g("cofhee_service_queue_depth", "Requests pending (queued + in flight).",
    static_cast<double>(st.queue_depth));
  g("cofhee_service_peak_queue_depth", "Largest queue depth observed at submit.",
    static_cast<double>(st.peak_queue_depth));
  g("cofhee_service_max_class_skip",
    "Largest consecutive-pick deficit any class reached.",
    static_cast<double>(st.max_class_skip));
  g("cofhee_service_pipeline_span_seconds",
    "Pipeline-model makespan as actually scheduled (simulated seconds).",
    st.pipeline_span_seconds);
  g("cofhee_service_serial_span_seconds",
    "Pipeline-model makespan with no overlap (simulated seconds).",
    st.serial_span_seconds);
  g("cofhee_service_overlap_wall_seconds",
    "Wall seconds of host work overlapped with chip stages.",
    st.overlap_wall_seconds);
  g("cofhee_service_wall_seconds", "Wall seconds since service construction.",
    st.wall_seconds);
  g("cofhee_service_active_seconds",
    "Wall seconds from first submit to last completion.", st.active_seconds);

  // Per-chip breakdowns.
  for (std::size_t i = 0; i < st.per_chip.size(); ++i) {
    const service::ChipStats& cs = st.per_chip[i];
    const Labels chip{{"chip", std::to_string(i)}};
    const auto cc = [&](const char* name, const char* help, double v) {
      reg.counter(name, help, chip).set(v);
    };
    cc("cofhee_chip_sessions_total", "Sessions this chip ran.",
       static_cast<double>(cs.sessions));
    cc("cofhee_chip_placements_total", "Work items placed on this chip.",
       static_cast<double>(cs.placements));
    cc("cofhee_chip_requests_total", "Requests this chip touched.",
       static_cast<double>(cs.requests));
    cc("cofhee_chip_tower_runs_total", "Algorithm-3 tower executions.",
       static_cast<double>(cs.tower_runs));
    cc("cofhee_chip_relin_tower_runs_total", "Relinearization tower runs.",
       static_cast<double>(cs.relin_tower_runs));
    cc("cofhee_chip_ring_configs_total", "Ring reconfigurations paid.",
       static_cast<double>(cs.ring_configs));
    cc("cofhee_chip_faults_total", "Typed faults this chip surfaced.",
       static_cast<double>(cs.faults));
    cc("cofhee_chip_quarantines_total", "Times this chip was quarantined.",
       static_cast<double>(cs.quarantines));
    cc("cofhee_chip_readmissions_total", "Times this chip was re-admitted.",
       static_cast<double>(cs.readmissions));
    cc("cofhee_chip_probes_total", "Probes sent to this chip.",
       static_cast<double>(cs.probes));
    cc("cofhee_chip_cycles_total", "PE cycles at the configured clock.",
       static_cast<double>(cs.chip_cycles));
    cc("cofhee_chip_compute_seconds_total", "Simulated chip compute.",
       cs.compute_seconds);
    cc("cofhee_chip_busy_wall_seconds_total", "Wall seconds inside sessions.",
       cs.busy_wall_seconds);
    reg.gauge("cofhee_chip_ewma_unit_cost_seconds",
              "EWMA simulated seconds per work item (feeds placement).", chip)
        .set(cs.ewma_unit_cost);
    reg.gauge("cofhee_chip_quarantined",
              "1 while the chip is quarantined (probes only), else 0.", chip)
        .set(cs.quarantined ? 1.0 : 0.0);
  }

  // Per-priority-class breakdowns.
  for (std::size_t i = 0; i < st.per_class.size(); ++i) {
    const service::ClassStats& cl = st.per_class[i];
    const Labels cls{{"class", class_label(i)}};
    reg.counter("cofhee_class_submitted_total", "Requests accepted into the class.",
                cls)
        .set(static_cast<double>(cl.submitted));
    reg.counter("cofhee_class_dispatched_total", "Requests handed to a round.", cls)
        .set(static_cast<double>(cl.dispatched));
    reg.counter("cofhee_class_completed_total", "Requests completed with a value.",
                cls)
        .set(static_cast<double>(cl.completed));
    reg.counter("cofhee_class_failed_total", "Requests completed with an exception.",
                cls)
        .set(static_cast<double>(cl.failed));
    reg.counter("cofhee_class_forced_picks_total",
                "Starvation-bound picks forced for this class.", cls)
        .set(static_cast<double>(cl.forced_picks));
    reg.gauge("cofhee_class_queue_depth",
              "Requests waiting in the queue for this class.", cls)
        .set(static_cast<double>(cl.queued));
    export_latency(reg, "cofhee_class", cls, cl.latency);
  }

  // Per-tenant breakdowns.
  for (const service::TenantStats& tn : st.per_tenant) {
    const Labels ten{{"tenant", tenant_label(tn.tenant)}};
    reg.counter("cofhee_tenant_submitted_total", "Requests accepted from the tenant.",
                ten)
        .set(static_cast<double>(tn.submitted));
    reg.counter("cofhee_tenant_completed_total", "Requests completed with a value.",
                ten)
        .set(static_cast<double>(tn.completed));
    reg.counter("cofhee_tenant_failed_total", "Requests completed with an exception.",
                ten)
        .set(static_cast<double>(tn.failed));
    reg.counter("cofhee_tenant_rejected_total",
                "Requests rejected at admission (rate limit, quota, queue full, "
                "oversized batch).",
                ten)
        .set(static_cast<double>(tn.rejected));
    reg.gauge("cofhee_tenant_weight", "Latest submitted DRR weight.", ten)
        .set(static_cast<double>(tn.weight));
    export_latency(reg, "cofhee_tenant", ten, tn.latency);
  }
}

}  // namespace cofhee::obs
