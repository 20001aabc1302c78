// The MDMC's word-sized datapath against 128-bit Barrett arithmetic, and
// bulk bus bursts against per-beat bus access.
//
// A ring with q < 2^62 and canonical operands runs NTT/iNTT and the modular
// pointwise ops on 64-bit kernels; every other command takes the PE's
// Barrett128 path.  Values are checked against element-wise Barrett128 /
// MergedNtt128 arithmetic computed here.  Cycles, the power report and the
// SRAM/bus/link counters do not depend on the datapath, so one program run
// on rings on both sides of 2^62 must account identically.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "chip/chip.hpp"
#include "driver/host_driver.hpp"
#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/sampler.hpp"

namespace cofhee::driver {

/// Parameterized test names print the execution mode.
void PrintTo(ExecMode m, std::ostream* os) {
  static constexpr const char* kNames[] = {"Direct", "Fifo", "Cm0"};
  *os << kNames[static_cast<int>(m)];
}

namespace {

using chip::BusMaster;
using chip::BusStats;
using chip::LinkStats;
using chip::PowerReport;
using nt::Barrett128;
using poly::MergedNtt128;

constexpr std::size_t kN = 256;
constexpr std::size_t kWords = 3 * kN;  // words compared per bank

/// Largest prime q == 1 (mod 2n) below 2^62.
u128 prime_below_2_62(std::size_t n) {
  std::uint64_t q = (std::uint64_t{1} << 62) - 2 * n + 1;
  while (!nt::is_prime(q)) q -= 2 * n;
  return q;
}

/// Rings on both sides of the fast-path test.  q below 2^62 is word-sized.
std::vector<u128> test_rings() {
  return {nt::find_ntt_prime_u64(55, kN, 7),   // a BFV-sized tower
          prime_below_2_62(kN),                // largest word-sized ring
          nt::find_ntt_prime_u128(63, kN),     // smallest prime above 2^62
          nt::find_ntt_prime_u128(109, kN)};   // the paper's wide ring
}

/// One command of every opcode, including an in-place product.
std::vector<Instr> every_opcode() {
  const auto n = static_cast<std::uint32_t>(kN);
  return {
      {Opcode::kNtt, {Bank::kSp0, 0}, {}, {Bank::kDp0, 0}, 0, 0},
      {Opcode::kNtt, {Bank::kSp1, 0}, {}, {Bank::kDp1, 0}, 0, 0},
      {Opcode::kPModMul, {Bank::kDp0, 0}, {Bank::kDp1, 0}, {Bank::kDp2, 0}, n, 0},
      {Opcode::kIntt, {Bank::kDp2, 0}, {}, {Bank::kSp2, 0}, 0, 0},
      {Opcode::kPModAdd, {Bank::kSp0, 0}, {Bank::kSp1, 0}, {Bank::kSp3, 0}, n, 0},
      {Opcode::kPModSub, {Bank::kSp0, 0}, {Bank::kSp1, 0}, {Bank::kSp3, n}, n, 0},
      {Opcode::kPModSqr, {Bank::kSp0, 0}, {}, {Bank::kDp0, n}, n, 0},
      {Opcode::kCModMul, {Bank::kSp1, 0}, {}, {Bank::kDp1, n}, n, 0},
      {Opcode::kPMul, {Bank::kSp0, 0}, {Bank::kSp1, 0}, {Bank::kDp2, n}, n, 0},
      {Opcode::kMemCpy, {Bank::kSp2, 0}, {}, {Bank::kDp0, 2 * n}, n, 0},
      {Opcode::kMemCpyR, {Bank::kSp3, 0}, {}, {Bank::kDp1, 2 * n}, n, 0},
      {Opcode::kPModMul, {Bank::kDp0, 0}, {Bank::kDp1, 0}, {Bank::kDp0, 0}, n, 0},
      {Opcode::kIntt, {Bank::kSp2, 0}, {}, {Bank::kSp2, 0}, 0, 0},
  };
}

/// Element-wise reference of the chip's memory: every op word by word in
/// PE order with Barrett128, the transforms through MergedNtt128 (whose
/// butterflies are the PE's, operand order included).
struct RefChip {
  Barrett128 ring;
  MergedNtt128 eng;
  u128 cmod;
  std::map<Bank, std::vector<u128>> mem;

  u128& at(const MemRef& r, std::size_t i) {
    auto& b = mem[r.bank];
    if (b.size() < kWords) b.resize(kWords, 0);
    return b.at(r.offset + i);
  }

  void apply(const Instr& in) {
    const std::size_t len = in.len != 0 ? in.len : kN;
    if (in.op == Opcode::kNtt || in.op == Opcode::kIntt) {
      poly::Coeffs<u128> x(kN);
      for (std::size_t i = 0; i < kN; ++i) x[i] = at(in.x, i);
      if (in.op == Opcode::kNtt) {
        eng.forward(x);
      } else {
        eng.inverse(x);
      }
      for (std::size_t i = 0; i < kN; ++i) at(in.dst, i) = x[i];
      return;
    }
    const unsigned logl = nt::log2_exact(len);
    for (std::size_t i = 0; i < len; ++i) {
      const u128 a = at(in.x, i);
      switch (in.op) {
        case Opcode::kPModAdd: at(in.dst, i) = ring.add(a, at(in.y, i)); break;
        case Opcode::kPModSub: at(in.dst, i) = ring.sub(a, at(in.y, i)); break;
        case Opcode::kPModMul: at(in.dst, i) = ring.mul(a, at(in.y, i)); break;
        case Opcode::kPModSqr: at(in.dst, i) = ring.mul(a, a); break;
        case Opcode::kCModMul: at(in.dst, i) = ring.mul(a, cmod); break;
        case Opcode::kPMul: at(in.dst, i) = a * at(in.y, i); break;
        case Opcode::kMemCpy: at(in.dst, i) = a; break;
        case Opcode::kMemCpyR: at(in.dst, nt::bit_reverse(i, logl)) = a; break;
        default: throw std::logic_error("RefChip: unexpected opcode");
      }
    }
  }
};

/// Everything a run accounts, none of which may depend on the datapath.
struct Accounting {
  std::uint64_t cycles = 0;
  PowerReport power;
  std::vector<std::array<std::uint64_t, 2>> sram;  // reads, writes per bank
  std::vector<std::array<std::uint64_t, 2>> bus;   // reads, writes per master
  LinkStats uart, spi;

  explicit Accounting(CofheeChip& c) : cycles(c.cycles()), power(c.power_trace().report()) {
    for (std::size_t b = 0; b < chip::kNumBanks; ++b) {
      const auto& s = c.mem().bank(static_cast<Bank>(b));
      sram.push_back({s.reads(), s.writes()});
    }
    for (std::size_t m = 0; m < chip::kNumMasters; ++m) {
      const BusStats& s = c.bus().stats(static_cast<BusMaster>(m));
      bus.push_back({s.reads, s.writes});
    }
    uart = c.uart().stats();
    spi = c.spi().stats();
  }
};

void expect_same_link(const LinkStats& a, const LinkStats& b) {
  EXPECT_EQ(a.bytes_tx, b.bytes_tx);
  EXPECT_EQ(a.bytes_rx, b.bytes_rx);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.seconds, b.seconds);
}

void expect_same(const Accounting& a, const Accounting& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.power.avg_mw, b.power.avg_mw);
  EXPECT_EQ(a.power.peak_mw, b.power.peak_mw);
  EXPECT_EQ(a.power.energy_uj, b.power.energy_uj);
  EXPECT_EQ(a.power.cycles, b.power.cycles);
  EXPECT_EQ(a.sram, b.sram);
  EXPECT_EQ(a.bus, b.bus);
  expect_same_link(a.uart, b.uart);
  expect_same_link(a.spi, b.spi);
}

/// Words poked into the operand banks after upload, to force the fallback.
using Pokes = std::vector<std::pair<MemRef, u128>>;

/// Upload two seeded polynomials over the link, run every opcode in `mode`,
/// and check every compared bank word against the reference.
Accounting run_program(u128 q, ExecMode mode, const Pokes& pokes = {}) {
  const std::size_t n = kN;
  const u128 psi = nt::primitive_2nth_root(q, n);
  const Barrett128 ring(q);
  CofheeChip soc;
  HostDriver drv(soc, mode, mode == ExecMode::kDirect ? Link::kUart : Link::kSpi);
  drv.configure_ring(q, n, psi, /*timed=*/true);

  poly::Rng rng(static_cast<std::uint64_t>(q) ^ 0x5eed);
  const auto a = poly::sample_uniform128(rng, n, q);
  const auto b = poly::sample_uniform128(rng, n, q);
  const u128 cmod = poly::sample_uniform128(rng, 1, q)[0];
  drv.load_polynomial(Bank::kSp0, 0, a);
  drv.load_polynomial(Bank::kSp1, 0, b);
  soc.gpcfg().set_cmod_const(cmod);

  RefChip ref{ring, MergedNtt128(ring, n, psi), cmod, {}};
  for (std::size_t i = 0; i < n; ++i) {
    ref.at({Bank::kSp0, 0}, i) = a[i];
    ref.at({Bank::kSp1, 0}, i) = b[i];
  }
  for (const auto& [where, v] : pokes) {
    soc.mem().bank(where.bank).poke(where.offset, v);
    ref.at(where, 0) = v;
  }

  const auto program = every_opcode();
  drv.run(program);
  for (const auto& in : program) ref.apply(in);

  // Read one result back over the link (the bulk read path), then compare
  // every bank word against the reference.
  EXPECT_EQ(drv.read_polynomial(Bank::kSp2, 0, n), std::vector<u128>(
                ref.mem[Bank::kSp2].begin(), ref.mem[Bank::kSp2].begin() + n));
  for (auto& [bank, words] : ref.mem) {
    const auto got = soc.read_coeffs(bank, 0, kWords);
    for (std::size_t i = 0; i < kWords; ++i) {
      if (got[i] != words[i]) {
        ADD_FAILURE() << "bank " << static_cast<int>(bank) << " word " << i
                      << " differs from the Barrett128 reference";
        break;
      }
    }
  }
  return Accounting(soc);
}

class WordDatapath : public ::testing::TestWithParam<ExecMode> {};

TEST_P(WordDatapath, EveryOpcodeMatchesBarrett128OnBothSidesOf2To62) {
  const auto rings = test_rings();
  ASSERT_LT(rings[1], u128{1} << 62);
  ASSERT_GT(rings[2], u128{1} << 62);
  const Accounting wide = run_program(rings.back(), GetParam());
  for (const u128 q : rings) {
    SCOPED_TRACE(static_cast<double>(q));
    expect_same(run_program(q, GetParam()), wide);
  }
}

TEST_P(WordDatapath, NonCanonicalOperandFallsBackAndMatches) {
  // A word >= q in each operand bank (kept below 2q so the reference's
  // Barrett128 stays in its input range): every command that reads one must
  // take the 128-bit path and reproduce its non-canonical arithmetic.
  const u128 q = test_rings()[0];
  const Pokes pokes = {{{Bank::kSp0, 5}, q + 7}, {{Bank::kSp1, 3}, 2 * q - 1}};
  expect_same(run_program(q, GetParam(), pokes), run_program(q, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Modes, WordDatapath,
                         ::testing::Values(ExecMode::kDirect, ExecMode::kFifo,
                                           ExecMode::kCm0),
                         [](const auto& info) {
                           return ::testing::PrintToString(info.param);
                         });

TEST(WordTwiddles, BankRewriteUnderSameQIsSeen) {
  // Rewrite only the TW bank (Q untouched) between transforms, over the
  // link and through the backdoor; every NTT must use the ROM it sees.
  // Then rewrite only INV_POLYDEG: the next iNTT must scale by it.  Both
  // datapaths cache their engines, so every ring runs.
  for (const u128 q : test_rings()) {
    SCOPED_TRACE(static_cast<double>(q));
    const std::size_t n = kN;
    const Barrett128 ring(q);
    const u128 psi1 = nt::primitive_2nth_root(q, n);
    const u128 psi3 = ring.pow(psi1, 3);  // another primitive 2n-th root
    const MergedNtt128 eng1(ring, n, psi1), eng3(ring, n, psi3);
    CofheeChip soc;
    HostDriver drv(soc);
    drv.configure_ring(q, n, psi1, /*timed=*/true);
    const std::uint64_t q_version = soc.gpcfg().q_version();
    poly::Rng rng(11);
    const auto a = poly::sample_uniform128(rng, n, q);
    drv.load_polynomial(Bank::kSp0, 0, a);

    const auto ntt_with = [&](const MergedNtt128& eng, Bank dst) {
      drv.ntt({Bank::kSp0, 0}, {dst, 0});
      poly::Coeffs<u128> x(a);
      eng.forward(x);
      EXPECT_EQ(soc.read_coeffs(dst, 0, n), x);
    };
    ntt_with(eng1, Bank::kDp0);
    drv.load_polynomial(Bank::kTw, 0, eng3.twiddle_rom());
    ntt_with(eng3, Bank::kDp1);
    soc.load_coeffs(Bank::kTw, 0, eng1.twiddle_rom());
    ntt_with(eng1, Bank::kDp2);
    // The inverse reads the same ROM through the mirror pass.
    soc.load_coeffs(Bank::kTw, 0, eng3.twiddle_rom());
    drv.intt({Bank::kDp1, 0}, {Bank::kSp1, 0});
    EXPECT_EQ(soc.read_coeffs(Bank::kSp1, 0, n), a);

    // Same q, same ROM, new INV_POLYDEG c: the iNTT now yields a * c * n.
    const u128 c = poly::sample_uniform128(rng, 1, q)[0];
    soc.gpcfg().set_inv_polydeg(c);
    drv.intt({Bank::kDp1, 0}, {Bank::kSp2, 0});
    const u128 scale = ring.mul(c, u128{n});
    std::vector<u128> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = ring.mul(a[i], scale);
    EXPECT_EQ(soc.read_coeffs(Bank::kSp2, 0, n), want);
    EXPECT_EQ(soc.gpcfg().q_version(), q_version);
  }
}

// --- bulk bus bursts ------------------------------------------------------

constexpr std::array<std::uint32_t, 8> kBeats = {0x11111111, 0x22222222, 0x33333333,
                                                 0x44444444, 0x55555555, 0x66666666,
                                                 0x77777777, 0x88888888};

/// Two adjacent 64-byte Sram-backed slaves with burst handlers, counting
/// how many bursts their bulk handlers took.
struct TwoSlaveBus {
  chip::AhbBus bus;
  std::array<chip::Sram, 2> mem{chip::Sram("A", 4, 1, 2), chip::Sram("B", 4, 1, 2)};
  std::size_t bulk_calls = 0;

  TwoSlaveBus() {
    for (std::uint32_t i = 0; i < 2; ++i) {
      chip::Sram& s = mem[i];
      bus.attach(chip::AhbSlave{
          s.name(), 0x1000 + 64 * i, 64,
          [&s](std::uint32_t off) {
            return static_cast<std::uint32_t>(s.read(off / 16) >> (8 * (off % 16)));
          },
          [&s](std::uint32_t off, std::uint32_t v) {
            const unsigned shift = 8 * (off % 16);
            const u128 mask = static_cast<u128>(0xFFFFFFFFu) << shift;
            s.write(off / 16, (s.peek(off / 16) & ~mask) | (static_cast<u128>(v) << shift));
          },
          [this, &s](std::uint32_t off, std::uint32_t* out, std::size_t count) {
            ++bulk_calls;
            s.read_words32(off, out, count);
          },
          [this, &s](std::uint32_t off, const std::uint32_t* w, std::size_t count) {
            ++bulk_calls;
            s.write_words32(off, w, count);
          }});
    }
  }
};

void expect_same_bus(TwoSlaveBus& a, TwoSlaveBus& b) {
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t w = 0; w < 4; ++w) EXPECT_TRUE(a.mem[i].peek(w) == b.mem[i].peek(w));
    EXPECT_EQ(a.mem[i].reads(), b.mem[i].reads());
    EXPECT_EQ(a.mem[i].writes(), b.mem[i].writes());
  }
  EXPECT_EQ(a.bus.stats(BusMaster::kHostSpi).reads, b.bus.stats(BusMaster::kHostSpi).reads);
  EXPECT_EQ(a.bus.stats(BusMaster::kHostSpi).writes,
            b.bus.stats(BusMaster::kHostSpi).writes);
}

TEST(BulkBurst, MatchesPerBeatAccessInsideAndAcrossSlaves) {
  // (start address, beats): inside A at an odd word; straddling A|B; a
  // misaligned start.  Only the first may take the bulk handler.
  const std::vector<std::pair<std::uint32_t, std::size_t>> cases = {
      {0x1014, 7}, {0x1038, 8}, {0x1002, 3}};
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const auto [addr, count] = cases[k];
    SCOPED_TRACE(addr);
    TwoSlaveBus bulk, beats;
    bulk.bus.write_burst(BusMaster::kHostSpi, addr, kBeats.data(), count);
    std::array<std::uint32_t, 8> got{}, want{};
    bulk.bus.read_burst(BusMaster::kHostSpi, addr, got.data(), count);
    for (std::uint32_t i = 0; i < count; ++i)
      beats.bus.write32(BusMaster::kHostSpi, addr + 4 * i, kBeats[i]);
    for (std::uint32_t i = 0; i < count; ++i)
      want[i] = beats.bus.read32(BusMaster::kHostSpi, addr + 4 * i);
    EXPECT_EQ(got, want);
    expect_same_bus(bulk, beats);
    EXPECT_EQ(bulk.bulk_calls, k == 0 ? 2u : 0u);
  }
}

TEST(BulkBurst, BurstRunningOffABankFailsLikePerBeatAccess) {
  // A link burst whose last beats fall past DP0's end: the beats inside
  // land, the first unmapped beat throws, exactly as beat-by-beat access.
  CofheeChip bulk, beats;
  const std::uint32_t end = chip::MemoryMap::kDataSramBase +
                            static_cast<std::uint32_t>(bulk.mem().bank(Bank::kDp0).words() * 16);
  const std::uint32_t addr = end - 8;
  EXPECT_THROW(bulk.spi().host_write_burst(addr, kBeats.data(), 4), std::out_of_range);
  const auto per_beat = [&] {
    for (std::uint32_t i = 0; i < 4; ++i)
      beats.bus().write32(BusMaster::kHostSpi, addr + 4 * i, kBeats[i]);
  };
  EXPECT_THROW(per_beat(), std::out_of_range);
  const auto& bb = bulk.mem().bank(Bank::kDp0);
  const auto& pb = beats.mem().bank(Bank::kDp0);
  EXPECT_TRUE(bb.peek(bb.words() - 1) == pb.peek(pb.words() - 1));
  EXPECT_EQ(bb.writes(), 2u);
  EXPECT_EQ(bb.writes(), pb.writes());
  EXPECT_EQ(bulk.bus().stats(BusMaster::kHostSpi).writes,
            beats.bus().stats(BusMaster::kHostSpi).writes);
  EXPECT_EQ(bulk.spi().stats().transactions, 1u);
  EXPECT_EQ(bulk.spi().stats().bytes_tx, 9u + 4 * 4);
}

}  // namespace
}  // namespace cofhee::driver
