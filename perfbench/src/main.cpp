// Wall-clock layer benchmark of the CoFHEE model.
//
//   perfbench --workload cryptonets_graph|chip_wide --seed N
//             --seconds S --trace 0|1 [--trace-out trace.json]
//
// Prints one JSON line: the run's metrics, item counts, whether every
// output checked out, and notes (seed, machine/build stamp).  With
// --trace 1 it also writes the Chrome trace that perfbench/reduce_trace.py
// turns into per-layer self times.  perfbench/run.py is the entry point
// that builds this program and assembles the final result.
#include <cstdio>
#include <exception>
#include <memory>

#include "harness.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    if (args.trace && !Recorder::enabled()) {
      std::fprintf(stderr, "perfbench: --trace 1 needs a COFHEE_TRACING=ON build\n");
      return 2;
    }
    Result r;
    r.note("workload", args.workload);
    r.note("seed", std::to_string(args.seed));
    stamp(r);
    const auto rec = args.trace ? std::make_unique<Recorder>() : nullptr;
    if (args.workload == "cryptonets_graph") {
      run_cryptonets_graph(args, rec.get(), r);
    } else if (args.workload == "chip_wide") {
      run_chip_wide(args, rec.get(), r);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    if (!args.trace && r.attempted > 0)
      r.set("success_rate",
            1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted),
            "ratio");
    if (rec != nullptr && !rec->write_json_file(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("%s\n", r.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
