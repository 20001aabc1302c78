// Shared plumbing of the wall-clock layer benchmark: command line, timing,
// percentiles, the /proc sampler, CPU accounting and the result record.
//
// The benchmark process prints one JSON object on its last stdout line (see
// Result::json); perfbench/run.py adds the per-layer numbers it reduces from
// the trace file and prints the final result line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Recorder = cofhee::obs::TraceRecorder;
using Span = cofhee::obs::TraceRecorder::WallSpan;

/// Seconds elapsed since `t0`.
[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Parsed command line.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (required with --trace 1).
  std::string trace_out;
};

/// Parse `--workload W --seed N --seconds S --trace 0|1 --trace-out PATH`;
/// throws std::invalid_argument on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// The metrics, counts and notes of one benchmark run.
class Result {
 public:
  /// Record metric `name` (overwrites).
  void set(const std::string& name, double value, const std::string& unit);
  /// Record a free-form note (machine stamp, seed, chosen percentile...).
  void note(const std::string& key, const std::string& value);
  /// Count one attempted item and whether it failed.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A check outside the item stream (a layer replay) failed.
  void mismatch() { correct_ = false; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// One JSON line: {"correct","attempted","failed","metrics","notes"}.
  [[nodiscard]] std::string json() const;

 private:
  bool correct_ = true;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> notes_;
};

/// Background sampler of /proc/self/status and /proc/self/fd: RSS, VmSize,
/// thread and descriptor counts, sampled every few milliseconds until
/// stop() (or destruction) joins the sampling thread.
class ProcSampler {
 public:
  ProcSampler();
  ~ProcSampler();
  ProcSampler(const ProcSampler&) = delete;
  ProcSampler& operator=(const ProcSampler&) = delete;

  /// Stop sampling and join (idempotent).
  void stop();

  double rss_start_mb = 0;
  double rss_end_mb = 0;
  double vmsize_peak_mb = 0;
  double threads_peak = 0;
  double fds_peak = 0;

 private:
  void sample();
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One reading of /proc/self/status field `key` (kB fields return MiB).
[[nodiscard]] double proc_status(const char* key);

/// User + system CPU seconds this process has used so far.
[[nodiscard]] double cpu_seconds();

/// Machine and build stamp: nproc, CPU model, compiler, build type, SIMD
/// lane and the tracing gate, stored as notes in `r`.
void stamp(Result& r);

/// Record the process-level metrics every workload reports: peak RSS, the
/// sampler's peaks and growth, and CPU per completed item.
void record_proc(Result& r, const ProcSampler& ps, double cpu_s, double items);

}  // namespace perfbench
