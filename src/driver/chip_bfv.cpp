#include "driver/chip_bfv.hpp"

#include <stdexcept>
#include <utility>

#include "nt/primes.hpp"

namespace cofhee::driver {

namespace {

/// Widen one 64-bit tower to the chip's 128-bit coefficient words.
std::vector<u128> widen(const poly::Coeffs<nt::u64>& t) {
  return {t.begin(), t.end()};
}

poly::Coeffs<nt::u64> narrow(const std::vector<u128>& w) {
  poly::Coeffs<nt::u64> t(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) t[i] = static_cast<nt::u64>(w[i]);
  return t;
}

/// RAII span over one chip phase: the destructor emits a simulated-axis
/// "phase" span covering exactly the io + compute seconds the phase added
/// to the report -- unconditionally, including during exception unwinding,
/// because a faulted phase's partial counters also reach ServiceStats (the
/// service feeds the partial report to note_chip_session).  That is what
/// keeps trace phase-track totals equal to stats io + compute.
class PhaseTrace {
 public:
  PhaseTrace(ChipMulReport* r, const char* name)
      : r_(r),
        name_(name),
        io0_(r != nullptr ? r->io_seconds : 0),
        ms0_(r != nullptr ? r->chip_ms : 0) {}
  PhaseTrace(const PhaseTrace&) = delete;
  PhaseTrace& operator=(const PhaseTrace&) = delete;
  ~PhaseTrace() {
    if (r_ == nullptr || r_->trace == nullptr) return;
    const double io = r_->io_seconds - io0_;
    const double compute = (r_->chip_ms - ms0_) * 1e-3;
    if (io + compute <= 0) return;  // phase faulted before any accounting
    r_->trace->span_sim(obs::TraceRecorder::sim_track_chip_phase(r_->trace_chip),
                        name_, "phase", io + compute,
                        {{"io_s", io}, {"compute_s", compute}});
  }

 private:
  ChipMulReport* r_;
  const char* name_;
  double io0_, ms0_;
};

/// RAII delta of the driver's transport-optimization counters over one
/// phase: whatever the driver accumulated (batched register writes,
/// twiddle-cache hits, compressed-key wire savings) lands in the report --
/// including the partial counters of a phase that faulted mid-way, matching
/// how PhaseTrace and ServiceStats account partial phases.
class TransportDelta {
 public:
  TransportDelta(ChipMulReport* r, const HostDriver& drv)
      : r_(r), drv_(drv), t0_(drv.transport()) {}
  TransportDelta(const TransportDelta&) = delete;
  TransportDelta& operator=(const TransportDelta&) = delete;
  ~TransportDelta() {
    if (r_ == nullptr) return;
    SessionCounters d = drv_.transport();
    d -= t0_;
    *r_ += d;
  }

 private:
  ChipMulReport* r_;
  const HostDriver& drv_;
  SessionCounters t0_;
};

}  // namespace

EvalMultOperands ChipBfvEvaluator::prepare(const bfv::Bfv& bfv, const bfv::Ciphertext& a,
                                           const bfv::Ciphertext& b) {
  if (a.size() != 2 || b.size() != 2)
    throw std::invalid_argument("ChipBfvEvaluator: 2-element ciphertexts expected");
  // Host-side exact centered base extension Q -> Q u B (the RNS plumbing
  // SEAL would do; CoFHEE accelerates the per-tower tensor underneath it).
  EvalMultOperands ops;
  ops.a0 = bfv.extend_centered_public(a.c[0]);
  ops.a1 = bfv.extend_centered_public(a.c[1]);
  ops.b0 = bfv.extend_centered_public(b.c[0]);
  ops.b1 = bfv.extend_centered_public(b.c[1]);
  return ops;
}

EvalMultOperands ChipBfvEvaluator::prepare_square(const bfv::Bfv& bfv,
                                                  const bfv::Ciphertext& a) {
  if (a.size() != 2)
    throw std::invalid_argument("ChipBfvEvaluator: 2-element ciphertext expected");
  // Squaring extends one ciphertext instead of two; the chip rebuilds the
  // B-operand banks from A's by DMA (load_tower), so b0/b1 stay empty.
  EvalMultOperands ops;
  ops.a0 = bfv.extend_centered_public(a.c[0]);
  ops.a1 = bfv.extend_centered_public(a.c[1]);
  ops.square = true;
  return ops;
}

void ChipBfvEvaluator::configure_tower(HostDriver& drv, const bfv::Bfv& bfv,
                                       std::size_t tower, ChipMulReport* report) {
  const PhaseTrace pt(report, "configure_tower");
  const TransportDelta td(report, drv);
  const auto& ctx = bfv.context();
  const std::size_t n = ctx.n();
  if (2 * n > drv.chip().config().bank_words)
    throw std::invalid_argument("ChipBfvEvaluator: ring too large for on-chip slots");
  const nt::u64 q = ctx.ext_basis().modulus(tower);
  const double io = drv.configure_ring(q, n, nt::primitive_2nth_root(q, n),
                                       /*timed=*/true);
  if (report != nullptr) {
    report->io_seconds += io;
    ++report->towers;
  }
}

void ChipBfvEvaluator::load_tower(HostDriver& drv, const EvalMultOperands& ops,
                                  std::size_t tower, ChipMulReport* report) {
  const PhaseTrace pt(report, "load_tower");
  const TransportDelta td(report, drv);
  double io = 0;
  io += drv.load_polynomial(Bank::kSp0, 0, widen(ops.a0.towers[tower]));
  io += drv.load_polynomial(Bank::kSp1, 0, widen(ops.a1.towers[tower]));
  if (ops.square) {
    // B == A and A's towers are already resident: duplicate SP0/SP1 into
    // SP2/SP3 at DMA speed instead of re-sending the same words over the
    // serial link (the dominant cost at bring-up ring sizes).
    const std::size_t n = ops.a0.towers[tower].size();
    std::uint64_t cycles = drv.copy_polynomial(Bank::kSp0, 0, Bank::kSp2, 0, n);
    cycles += drv.copy_polynomial(Bank::kSp1, 0, Bank::kSp3, 0, n);
    if (report != nullptr) {
      report->chip_cycles += cycles;
      report->chip_ms +=
          static_cast<double>(cycles) * drv.chip().config().cycle_ns() * 1e-6;
      report->sram_reuses += 2;
    }
  } else {
    io += drv.load_polynomial(Bank::kSp2, 0, widen(ops.b0.towers[tower]));
    io += drv.load_polynomial(Bank::kSp3, 0, widen(ops.b1.towers[tower]));
  }
  if (report != nullptr) report->io_seconds += io;
}

void ChipBfvEvaluator::execute_tower(HostDriver& drv, ChipMulReport* report) {
  const PhaseTrace pt(report, "execute_tower");
  const TransportDelta td(report, drv);
  const auto r = drv.ciphertext_mul();
  if (report != nullptr) {
    report->chip_cycles += r.compute_cycles;
    report->chip_ms += r.compute_ms;
  }
}

TowerTensor ChipBfvEvaluator::read_tower(HostDriver& drv, ChipMulReport* report) {
  const PhaseTrace pt(report, "read_tower");
  const std::size_t n = drv.n();
  TowerTensor t;
  double io = 0;
  t.y0 = narrow(drv.read_polynomial(Bank::kSp0, 0, n, &io));
  if (report != nullptr) report->io_seconds += io;
  t.y1 = narrow(drv.read_polynomial(Bank::kSp1, 0, n, &io));
  if (report != nullptr) report->io_seconds += io;
  t.y2 = narrow(drv.read_polynomial(Bank::kSp2, 0, n, &io));
  if (report != nullptr) report->io_seconds += io;
  return t;
}

bfv::Ciphertext ChipBfvEvaluator::assemble(const bfv::Bfv& bfv,
                                           const std::vector<TowerTensor>& tensors) {
  poly::RnsPoly y0, y1, y2;
  y0.towers.resize(tensors.size());
  y1.towers.resize(tensors.size());
  y2.towers.resize(tensors.size());
  for (std::size_t tw = 0; tw < tensors.size(); ++tw) {
    y0.towers[tw] = tensors[tw].y0;
    y1.towers[tw] = tensors[tw].y1;
    y2.towers[tw] = tensors[tw].y2;
  }
  bfv::Ciphertext out;
  out.c.push_back(bfv.scale_round_public(y0));
  out.c.push_back(bfv.scale_round_public(y1));
  out.c.push_back(bfv.scale_round_public(y2));
  return out;
}

RelinOperands ChipBfvEvaluator::prepare_relin(const bfv::Bfv& bfv,
                                              const bfv::Ciphertext& ct,
                                              const bfv::RelinKeys& rk) {
  if (ct.size() != 3)
    throw std::invalid_argument(
        "ChipBfvEvaluator: relinearization expects a 3-element ciphertext");
  RelinOperands ops;
  ops.digits = bfv.relin_digits_public(ct.c[2], rk);  // validates rk
  ops.c0 = ct.c[0];
  ops.c1 = ct.c[1];
  return ops;
}

void ChipBfvEvaluator::configure_relin_tower(HostDriver& drv, const bfv::Bfv& bfv,
                                             std::size_t tower, ChipMulReport* report) {
  if (tower >= bfv.context().q_basis().size())
    throw std::invalid_argument("ChipBfvEvaluator: relin tower outside the Q basis");
  // Q is a prefix of the extended basis, so the same ring image applies.
  configure_tower(drv, bfv, tower, report);
}

RelinTowerAcc ChipBfvEvaluator::relin_tower(HostDriver& drv, const bfv::Bfv& bfv,
                                            const RelinOperands& ops,
                                            const bfv::RelinKeys& rk, std::size_t tower,
                                            ChipMulReport* report) {
  auto accs = relin_tower_batch(drv, bfv, {&ops}, rk, tower, /*cache=*/nullptr, report);
  return std::move(accs.front());
}

std::vector<RelinTowerAcc> ChipBfvEvaluator::relin_tower_batch(
    HostDriver& drv, const bfv::Bfv& bfv, const std::vector<const RelinOperands*>& group,
    const bfv::RelinKeys& rk, std::size_t tower, RelinKeyCache* cache,
    ChipMulReport* report) {
  const PhaseTrace pt(report, "relin_tower");
  const TransportDelta td(report, drv);
  const auto& ring = bfv.context().q_basis().tower(tower);
  std::vector<RelinTowerAcc> accs;
  accs.reserve(group.size());
  for (const RelinOperands* ops : group)
    accs.push_back({ops->c0.towers.at(tower), ops->c1.towers.at(tower)});
  double io = 0;
  // Digit-outer, request-inner: inside one digit every request needs the
  // same two key polynomials, so serpentining the component order per
  // request makes consecutive products share SP1's resident key (cache
  // hits) while each request's digit is uploaded once and reused for both
  // components (PolyMul leaves SP0/SP1 intact).  Accumulation stays in
  // ascending digit order per component, so results match the software
  // reference bit for bit.
  const std::size_t digits = group.empty() ? 0 : group.front()->digits.size();
  for (std::size_t d = 0; d < digits; ++d) {
    for (std::size_t r = 0; r < group.size(); ++r) {
      const RelinOperands& ops = *group[r];
      io += drv.load_polynomial(Bank::kSp0, 0, widen(ops.digits[d].towers[tower]));
      const unsigned first = r % 2 == 0 ? 0 : 1;  // serpentine component order
      for (unsigned step = 0; step < 2; ++step) {
        const unsigned comp = step == 0 ? first : 1 - first;
        if (cache != nullptr && cache->hit(&rk, tower, d, comp)) {
          if (report != nullptr) ++report->key_cache_hits;
        } else {
          const auto& key = comp == 0 ? rk.keys[d].first : rk.keys[d].second;
          if (comp == 1 && rk.seeded() && drv.key_compression()) {
            // The `a` half of the key pair is uniform-from-seed: ship the
            // 17-byte seed frame and let the chip expand it locally -- SRAM
            // ends bit-identical to the full burst of key.towers[tower].
            std::uint64_t expand_cycles = 0;
            io += drv.load_polynomial_seeded(Bank::kSp1, 0, key.towers[tower].size(),
                                             rk.a_seeds[d], tower, &expand_cycles);
            if (report != nullptr) {
              report->chip_cycles += expand_cycles;
              report->chip_ms += static_cast<double>(expand_cycles) *
                                 drv.chip().config().cycle_ns() * 1e-6;
            }
          } else {
            io += drv.load_polynomial(Bank::kSp1, 0, widen(key.towers[tower]));
          }
          if (cache != nullptr) cache->loaded(&rk, tower, d, comp);
          if (report != nullptr) ++report->key_uploads;
        }
        const auto rep = drv.poly_mul();
        double rio = 0;
        const auto prod = narrow(drv.read_polynomial(Bank::kSp2, 0, drv.n(), &rio));
        io += rio;
        auto& dst = comp == 0 ? accs[r].c0 : accs[r].c1;
        dst = poly::pointwise_add(ring, dst, prod);
        if (report != nullptr) {
          report->chip_cycles += rep.compute_cycles;
          report->chip_ms += rep.compute_ms;
          ++report->ks_products;
        }
      }
    }
  }
  if (report != nullptr) report->io_seconds += io;
  return accs;
}

bfv::Ciphertext ChipBfvEvaluator::assemble_relin(
    const std::vector<RelinTowerAcc>& towers) {
  bfv::Ciphertext out;
  out.c.resize(2);
  out.c[0].towers.resize(towers.size());
  out.c[1].towers.resize(towers.size());
  for (std::size_t tw = 0; tw < towers.size(); ++tw) {
    out.c[0].towers[tw] = towers[tw].c0;
    out.c[1].towers[tw] = towers[tw].c1;
  }
  return out;
}

bfv::Ciphertext ChipBfvEvaluator::relinearize(const bfv::Bfv& bfv,
                                              const bfv::Ciphertext& ct,
                                              const bfv::RelinKeys& rk,
                                              ChipMulReport* report) {
  const auto& ctx = bfv.context();
  if (2 * ctx.n() > chip_.config().bank_words)
    throw std::invalid_argument("ChipBfvEvaluator: ring too large for on-chip slots");
  const RelinOperands ops = prepare_relin(bfv, ct, rk);

  ChipMulReport rep;
  std::vector<RelinTowerAcc> accs(ctx.q_basis().size());
  HostDriver drv(chip_, mode_, link_);
  for (std::size_t tw = 0; tw < accs.size(); ++tw) {
    configure_relin_tower(drv, bfv, tw, &rep);
    accs[tw] = relin_tower(drv, bfv, ops, rk, tw, &rep);
  }

  bfv::Ciphertext out = assemble_relin(accs);
  if (report != nullptr) *report = rep;
  return out;
}

bfv::Ciphertext ChipBfvEvaluator::multiply_relin(const bfv::Bfv& bfv,
                                                 const bfv::Ciphertext& a,
                                                 const bfv::Ciphertext& b,
                                                 const bfv::RelinKeys& rk,
                                                 ChipMulReport* report) {
  ChipMulReport rep;
  const bfv::Ciphertext tensor = multiply(bfv, a, b, &rep);
  ChipMulReport relin_rep;
  bfv::Ciphertext out = relinearize(bfv, tensor, rk, &relin_rep);
  rep += relin_rep;
  if (report != nullptr) *report = rep;
  return out;
}

bfv::Ciphertext ChipBfvEvaluator::multiply(const bfv::Bfv& bfv,
                                           const bfv::Ciphertext& a,
                                           const bfv::Ciphertext& b,
                                           ChipMulReport* report) {
  const auto& ctx = bfv.context();
  if (2 * ctx.n() > chip_.config().bank_words)
    throw std::invalid_argument("ChipBfvEvaluator: ring too large for on-chip slots");
  const EvalMultOperands ops =
      &a == &b ? prepare_square(bfv, a) : prepare(bfv, a, b);

  ChipMulReport rep;
  std::vector<TowerTensor> tensors(ctx.ext_basis().size());
  HostDriver drv(chip_, mode_, link_);
  for (std::size_t tw = 0; tw < tensors.size(); ++tw) {
    configure_tower(drv, bfv, tw, &rep);
    load_tower(drv, ops, tw, &rep);
    execute_tower(drv, &rep);
    tensors[tw] = read_tower(drv, &rep);
  }

  bfv::Ciphertext out = assemble(bfv, tensors);
  if (report != nullptr) *report = rep;
  return out;
}

}  // namespace cofhee::driver
