#include "harness.hpp"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "nt/simd.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  if (a.trace && a.trace_out.empty())
    throw std::invalid_argument("--trace 1 needs --trace-out");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Result::set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

namespace {

std::string quoted(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

}  // namespace

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ && failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(vu.first) ? vu.first : 0.0);
    os << (first ? "" : ", ") << quoted(name) << ": {\"value\": " << num
       << ", \"unit\": " << quoted(vu.second) << "}";
    first = false;
  }
  os << "}, \"notes\": {";
  first = true;
  for (const auto& [k, v] : notes_) {
    os << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
    first = false;
  }
  os << "}}";
  return os.str();
}

double proc_status(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen && line[klen] == ':') {
      const double v = std::strtod(line.c_str() + klen + 1, nullptr);
      return line.find("kB") != std::string::npos ? v / 1024.0 : v;
    }
  }
  return 0;
}

namespace {

double count_fds() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  double n = 0;
  while (const dirent* e = readdir(d))
    if (e->d_name[0] != '.') ++n;
  closedir(d);
  return n - 1;  // the directory stream's own descriptor
}

}  // namespace

ProcSampler::ProcSampler() : rss_start_mb(proc_status("VmRSS")) {
  sample();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

ProcSampler::~ProcSampler() { stop(); }

void ProcSampler::stop() {
  if (!thread_.joinable()) return;
  stop_ = true;
  thread_.join();
  sample();
  rss_end_mb = proc_status("VmRSS");
}

void ProcSampler::sample() {
  vmsize_peak_mb = std::max(vmsize_peak_mb, proc_status("VmSize"));
  threads_peak = std::max(threads_peak, proc_status("Threads"));
  fds_peak = std::max(fds_peak, count_fds());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

void stamp(Result& r) {
  r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      r.note("cpu_model", colon == std::string::npos ? line : line.substr(colon + 2));
      break;
    }
  }
#if defined(__clang__)
  r.note("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  r.note("compiler", std::string("gcc ") + __VERSION__);
#endif
  r.note("build_type", PERFBENCH_BUILD_TYPE);
  r.note("simd_isa", cofhee::nt::simd::isa_name(cofhee::nt::simd::active_isa()));
  r.note("cofhee_tracing", COFHEE_TRACING ? "1" : "0");
}

void record_proc(Result& r, const ProcSampler& ps, double cpu_s, double items) {
  r.set("peak_rss_mb", proc_status("VmHWM"), "MB");
  r.set("cpu_ms_per_item", items > 0 ? 1e3 * cpu_s / items : 0, "ms");
  r.set("proc.threads_peak", ps.threads_peak, "count");
  r.set("proc.vmsize_peak_mb", ps.vmsize_peak_mb, "MB");
  r.set("proc.fds_peak", ps.fds_peak, "count");
  r.set("proc.rss_growth_mb", ps.rss_end_mb - ps.rss_start_mb, "MB");
}

}  // namespace perfbench
