// The counters one chip session produces, declared once.
//
// COFHEE_SESSION_COUNTERS is the single list of (name, type, help) rows.
// It generates SessionCounters (fields plus operator+=), which
// driver::ChipMulReport, service::ChipStats and service::ServiceStats
// inherit, so the per-chip and service-wide roll-ups are one `+=` each.
// obs::export_service_stats emits cofhee_service_<name>_total and
// cofhee_chip_<name>_total{chip=...} for every row from the same list.
// Adding a session counter means adding one row here and producing its
// value in the driver; aggregation and exposition follow.
//
// Row notes beyond the help text:
//  * key_uploads + key_cache_hits is the key-load count a cache-less
//    session pays; for relin traffic it equals ks_products.
//  * sram_reuses: the squaring hint (B == A) synthesizes B0/B1 from SP0/SP1
//    by on-chip DMA, 2 per tower run of a squared request.
//  * batched_writes, twiddle_cache_hits and key_bytes_saved are also the
//    HostDriver's cumulative transport counters (HostDriver::transport()),
//    whose per-phase deltas land in ChipMulReport.
#pragma once

#include <cstdint>

/// The session-counter list: X(name, type, help) per row.  Units: counts,
/// except key_bytes_saved (bytes) and io_seconds (simulated seconds).
#define COFHEE_SESSION_COUNTERS(X)                                             \
  X(ks_products, std::uint64_t, "Algorithm-2 key-switch PolyMuls.")            \
  X(key_uploads, std::uint64_t, "Relin-key tower uploads paid.")               \
  X(key_cache_hits, std::uint64_t,                                             \
    "Relin-key tower uploads skipped by the batch-aware key cache.")           \
  X(sram_reuses, std::uint64_t,                                                \
    "Operand uploads replaced by on-chip DMA duplication.")                    \
  X(batched_writes, std::uint64_t,                                             \
    "Register writes coalesced into burst frames by link batching.")           \
  X(twiddle_cache_hits, std::uint64_t,                                         \
    "Ring configurations skipped by the twiddle-ROM cache.")                   \
  X(key_bytes_saved, std::uint64_t,                                            \
    "Wire bytes saved by seed-compressed relin-key uploads.")                  \
  X(io_seconds, double, "Simulated serial-link transport seconds.")

namespace cofhee::driver {

/// One field per COFHEE_SESSION_COUNTERS row, zero-initialized, plus the
/// field-wise sum and difference.  Simulated quantities only, never host
/// wall clock.
struct SessionCounters {
  /// \cond
  // Generated fields; doxygen does not expand the list, so it skips them.
#define COFHEE_SESSION_FIELD(name, type, help) type name = 0;
  COFHEE_SESSION_COUNTERS(COFHEE_SESSION_FIELD)
#undef COFHEE_SESSION_FIELD
  /// \endcond

  /// Add another session's counters field by field.
  SessionCounters& operator+=(const SessionCounters& o) {
#define COFHEE_SESSION_ADD(name, type, help) name += o.name;
    COFHEE_SESSION_COUNTERS(COFHEE_SESSION_ADD)
#undef COFHEE_SESSION_ADD
    return *this;
  }

  /// Subtract an earlier snapshot field by field (the delta over a phase).
  SessionCounters& operator-=(const SessionCounters& o) {
#define COFHEE_SESSION_SUB(name, type, help) name -= o.name;
    COFHEE_SESSION_COUNTERS(COFHEE_SESSION_SUB)
#undef COFHEE_SESSION_SUB
    return *this;
  }
};

}  // namespace cofhee::driver
