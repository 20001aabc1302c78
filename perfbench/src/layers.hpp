// Single-layer probes the traced run adds next to the workload itself.
//
// Each probe calls one module's public functions directly and wraps every
// call in a benchmark-owned WallSpan; perfbench/reduce_trace.py turns the
// spans into per-layer self times.  Probes run after the timed phase, so
// they never perturb the end-to-end numbers.
#pragma once

#include <cstdint>

#include "bfv/bfv.hpp"
#include "harness.hpp"
#include "service/request_queue.hpp"

namespace perfbench {

/// Dependent Barrett64 / Barrett128 multiply chains on one 55-bit NTT prime
/// (spans "nt.barrett64_chain" / "nt.barrett128_chain", arg ops = chain
/// length).  The chain start derives from `seed`.
void probe_nt(Recorder* rec, std::uint64_t seed);

/// Replay one complete EvalMult of `req` (kMultRelin; `req.square` picks
/// prepare_square) through ChipBfvEvaluator's public per-tower phases on a
/// private chip, `reps` times, spanning every phase ("driver.prepare",
/// "driver.configure", "driver.load", "driver.execute", "driver.read",
/// "driver.assemble", "driver.relin" inside "driver.request"), plus one
/// HostDriver::poly_mul per replay ("chip.poly_mul", arg ops = cycles).
/// Records the replay's simulated io and compute in `r`, and marks `r`
/// incorrect when the replay differs from the software scheme.
void replay_driver(const cofhee::bfv::Bfv& scheme, const cofhee::bfv::RelinKeys& rk,
                   const cofhee::service::EvalRequest& req, int reps, Recorder* rec,
                   Result& r);

/// The software reference for the same EvalMult ("bfv.multiply_relin").
void probe_software(const cofhee::bfv::Bfv& scheme, const cofhee::bfv::RelinKeys& rk,
                    const cofhee::service::EvalRequest& req, int reps, Recorder* rec);

/// The TCP front door's fixed cost per request, on a private single-chip
/// service at test_tiny(64) where that cost is a large share: after a warm
/// round, each rep submits one seeded kMultRelin in-process
/// ("bench.submit_local") and then over a fresh connection ("net.connect",
/// "bench.submit_wire"), and scrapes GET /metrics ("net.scrape").  Records
/// net.overhead_ms (wire minus in-process median), net.bytes_per_request and
/// the server's connection and reject counts; marks `r` incorrect on a wrong
/// or refused result.
void probe_front_door(std::uint64_t seed, int reps, Recorder* rec, Result& r);

/// Wire codec cost of a one-request frame ("net.encode_submit",
/// "net.decode_submit", "net.encode_result"); `result` is the reply value.
void probe_codec(const cofhee::service::EvalRequest& req,
                 const cofhee::bfv::Ciphertext& result, int reps, Recorder* rec);

}  // namespace perfbench
