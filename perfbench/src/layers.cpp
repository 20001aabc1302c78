#include "layers.hpp"

#include <memory>
#include <vector>

#include "bfv/encoder.hpp"
#include "chip/chip.hpp"
#include "driver/chip_bfv.hpp"
#include "driver/host_driver.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "nt/barrett.hpp"
#include "nt/primes.hpp"
#include "service/chip_farm.hpp"
#include "service/eval_service.hpp"

namespace perfbench {

namespace cb = cofhee::bfv;
namespace cd = cofhee::driver;
namespace cn = cofhee::nt;

namespace {

bool same(const cb::Ciphertext& x, const cb::Ciphertext& y) {
  if (x.c.size() != y.c.size()) return false;
  for (std::size_t i = 0; i < x.c.size(); ++i)
    if (x.c[i].towers != y.c[i].towers) return false;
  return true;
}

cb::Ciphertext software_mult_relin(const cb::Bfv& scheme, const cb::RelinKeys& rk,
                                   const cofhee::service::EvalRequest& req) {
  const cb::Ciphertext& b = req.square ? req.a : req.b;
  return scheme.relinearize(scheme.multiply(req.a, b), rk);
}

}  // namespace

void probe_nt(Recorder* rec, std::uint64_t seed) {
  constexpr std::size_t kOps = 1u << 18;
  constexpr int kReps = 7;
  const cn::u64 q = cn::find_ntt_prime_u64(55, 4096);
  const cn::Barrett64 b64(q);
  const cn::Barrett128 b128(q);
  const cn::u64 w = 3 + seed % (q - 3);
  volatile cn::u64 sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    cn::u64 x = (seed + static_cast<cn::u64>(rep)) % q;
    {
      Span s(rec, "nt.barrett64_chain", "bench", {{"ops", double{kOps}}});
      for (std::size_t i = 0; i < kOps; ++i) x = b64.mul(x, w);
    }
    cn::u128 y = x;
    {
      Span s(rec, "nt.barrett128_chain", "bench", {{"ops", double{kOps}}});
      for (std::size_t i = 0; i < kOps; ++i) y = b128.mul(y, w);
    }
    sink = sink + static_cast<cn::u64>(y);
  }
  (void)sink;
}

void replay_driver(const cb::Bfv& scheme, const cb::RelinKeys& rk,
                   const cofhee::service::EvalRequest& req, int reps, Recorder* rec,
                   Result& r) {
  using cd::ChipBfvEvaluator;
  const cb::Ciphertext expect = software_mult_relin(scheme, rk, req);
  cofhee::chip::CofheeChip soc;
  cd::HostDriver drv(soc);
  const std::size_t ext = scheme.context().ext_basis().size();
  const std::size_t qt = scheme.context().q_basis().size();
  for (int rep = 0; rep < reps; ++rep) {
    cd::ChipMulReport rep_report;
    cb::Ciphertext out;
    {
      Span whole(rec, "driver.request", "bench");
      cd::EvalMultOperands ops;
      {
        Span s(rec, "driver.prepare", "bench");
        ops = req.square ? ChipBfvEvaluator::prepare_square(scheme, req.a)
                         : ChipBfvEvaluator::prepare(scheme, req.a, req.b);
      }
      std::vector<cd::TowerTensor> tensors(ext);
      for (std::size_t tw = 0; tw < ext; ++tw) {
        {
          Span s(rec, "driver.configure", "bench");
          ChipBfvEvaluator::configure_tower(drv, scheme, tw, &rep_report);
        }
        {
          Span s(rec, "driver.load", "bench");
          ChipBfvEvaluator::load_tower(drv, ops, tw, &rep_report);
        }
        {
          Span s(rec, "driver.execute", "bench");
          ChipBfvEvaluator::execute_tower(drv, &rep_report);
        }
        Span s(rec, "driver.read", "bench");
        tensors[tw] = ChipBfvEvaluator::read_tower(drv, &rep_report);
      }
      cb::Ciphertext tensor;
      {
        Span s(rec, "driver.assemble", "bench");
        tensor = ChipBfvEvaluator::assemble(scheme, tensors);
      }
      Span s(rec, "driver.relin", "bench");
      const cd::RelinOperands rops = ChipBfvEvaluator::prepare_relin(scheme, tensor, rk);
      std::vector<cd::RelinTowerAcc> accs(qt);
      for (std::size_t tw = 0; tw < qt; ++tw) {
        ChipBfvEvaluator::configure_relin_tower(drv, scheme, tw, &rep_report);
        accs[tw] = ChipBfvEvaluator::relin_tower(drv, scheme, rops, rk, tw, &rep_report);
      }
      out = ChipBfvEvaluator::assemble_relin(accs);
    }
    if (!same(out, expect)) r.mismatch();
    if (rep == 0) {
      r.set("driver.sim_io_s", rep_report.io_seconds, "s");
      r.set("driver.sim_compute_ms", rep_report.chip_ms, "ms");
    }
    // The ring of the last relin tower is still configured: one bare
    // Algorithm-2 PolyMul on whatever the banks hold times the chip alone.
    const std::uint64_t c0 = soc.cycles();
    Span s(rec, "chip.poly_mul", "bench");
    (void)drv.poly_mul();
    s.arg("ops", static_cast<double>(soc.cycles() - c0));
  }
}

void probe_software(const cb::Bfv& scheme, const cb::RelinKeys& rk,
                    const cofhee::service::EvalRequest& req, int reps, Recorder* rec) {
  for (int rep = 0; rep < reps; ++rep) {
    Span s(rec, "bfv.multiply_relin", "bench");
    (void)software_mult_relin(scheme, rk, req);
  }
}

void probe_front_door(std::uint64_t seed, int reps, Recorder* rec, Result& r) {
  namespace net = cofhee::net;
  namespace svc = cofhee::service;
  cb::Bfv scheme(cb::BfvParams::test_tiny(64), seed);
  const cb::SecretKey sk = scheme.keygen_secret();
  const cb::PublicKey pk = scheme.keygen_public(sk);
  const cb::RelinKeys rk = scheme.keygen_relin(sk, 16);
  const cb::IntegerEncoder enc(scheme.context());
  svc::ChipFarm farm(1);
  svc::ServiceOptions opts;
  opts.relin_keys = &rk;
  svc::EvalService service(scheme, farm, opts);
  net::EvalServer server(service);

  std::vector<double> local_s, wire_s;
  std::vector<net::ResultItem> reply;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 warms both paths
    const auto v = static_cast<std::int64_t>(seed % 97) + rep;
    const svc::EvalRequest req{scheme.encrypt(pk, enc.encode(v)),
                               scheme.encrypt(pk, enc.encode(v + 3)),
                               svc::RequestKind::kMultRelin, false};
    const cb::Ciphertext expect = software_mult_relin(scheme, rk, req);
    auto t0 = Clock::now();
    {
      Span s(rec, "bench.submit_local", "bench");
      if (!same(service.submit(req).get(), expect)) r.mismatch();
    }
    if (rep >= 0) local_s.push_back(seconds_since(t0));
    std::unique_ptr<net::EvalClient> cli;
    {
      Span s(rec, "net.connect", "bench");
      cli = std::make_unique<net::EvalClient>("127.0.0.1", server.port());
      cli->hello();
    }
    t0 = Clock::now();
    {
      Span s(rec, "bench.submit_wire", "bench");
      reply = cli->submit_batch({req});
    }
    if (rep >= 0) wire_s.push_back(seconds_since(t0));
    if (reply.size() != 1 || !reply[0].ok || !same(reply[0].value, expect)) r.mismatch();
    cli->bye();
    Span s(rec, "net.scrape", "bench");
    (void)net::http_get_metrics("127.0.0.1", server.port());
    if (rep == reps - 1) {
      net::SubmitFrame sf;
      sf.requests.push_back(req);
      r.set("net.bytes_per_request",
            static_cast<double>(2 * net::kHeaderSize + net::encode_submit(sf).size() +
                                net::encode_result_batch(reply).size()),
            "count");
    }
  }
  r.set("net.overhead_ms", 1e3 * (quantile(wire_s, 0.5) - quantile(local_s, 0.5)), "ms");
  server.stop();
  const net::NetServerStats ns = server.stats();
  r.set("net.connections_accepted", static_cast<double>(ns.connections_accepted), "count");
  r.set("net.rejects_sent", static_cast<double>(ns.rejects_sent), "count");
}

void probe_codec(const cofhee::service::EvalRequest& req, const cb::Ciphertext& result,
                 int reps, Recorder* rec) {
  namespace net = cofhee::net;
  net::SubmitFrame sf;
  sf.requests.push_back(req);
  std::vector<net::ResultItem> items(1);
  items[0].ok = true;
  items[0].value = result;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::uint8_t> bytes;
    {
      Span s(rec, "net.encode_submit", "bench");
      bytes = net::encode_submit(sf);
    }
    {
      Span s(rec, "net.decode_submit", "bench");
      (void)net::decode_submit(bytes);
    }
    Span s(rec, "net.encode_result", "bench");
    (void)net::encode_result_batch(items);
  }
}

}  // namespace perfbench
