// The workloads.  Each sets up its own system (several times, for the
// set-up median), warms it, runs for the requested seconds and checks every
// output it produced.  With Args::trace the run is split: the first half
// untraced (for trace.overhead_frac), the second half traced on a fresh
// set-up, then the layer probes.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_cryptonets_graph(const Args& args, Recorder* rec, Result& r);
void run_chip_wide(const Args& args, Recorder* rec, Result& r);

/// Run `set_up(double* elapsed)` `reps` times, each after the previous
/// set-up is destroyed, record the median elapsed seconds as setup_s and
/// return the last set-up.
template <class SetUp>
auto set_up_median(Result& r, int reps, SetUp set_up) {
  decltype(set_up(nullptr)) st;
  std::vector<double> t(static_cast<std::size_t>(reps));
  for (double& s : t) {
    st.reset();
    st = set_up(&s);
  }
  r.set("setup_s", quantile(t, 0.5), "s");
  return st;
}

}  // namespace perfbench
