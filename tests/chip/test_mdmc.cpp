// MDMC correctness and the Table V cycle calibration.
#include "chip/chip.hpp"

#include <gtest/gtest.h>

#include <array>

#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/sampler.hpp"

namespace cofhee::chip {
namespace {

using nt::Barrett128;
using poly::MergedNtt128;

struct ChipFixture {
  CofheeChip chip;
  u128 q;
  std::size_t n;
  Barrett128 ring;
  MergedNtt128 eng;

  explicit ChipFixture(std::size_t n_, unsigned bits = 109)
      : q(nt::find_ntt_prime_u128(bits, n_)), n(n_), ring(q),
        eng(ring, n_, nt::primitive_2nth_root(q, n_)) {
    chip.gpcfg().set_q(q);
    chip.gpcfg().set_n(n);
    chip.gpcfg().set_inv_polydeg(eng.n_inv());
    chip.load_coeffs(Bank::kTw, 0, eng.twiddle_rom());
  }

  std::vector<u128> random_poly(std::uint64_t seed) {
    poly::Rng rng(seed);
    return poly::sample_uniform128(rng, n, q);
  }
};

TEST(Mdmc, NttMatchesReferenceEngine) {
  ChipFixture f(256);
  const auto x = f.random_poly(1);
  f.chip.load_coeffs(Bank::kDp0, 0, x);
  f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  auto expect = x;
  f.eng.forward(expect);
  EXPECT_EQ(f.chip.read_coeffs(Bank::kDp1, 0, f.n), expect);
}

TEST(Mdmc, InttInvertsNtt) {
  ChipFixture f(512);
  const auto x = f.random_poly(2);
  f.chip.load_coeffs(Bank::kDp0, 0, x);
  f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  f.chip.direct_execute({Opcode::kIntt, {Bank::kDp1, 0}, {}, {Bank::kDp0, 0}, 0, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kDp0, 0, f.n), x);
}

TEST(Mdmc, NttHadamardInttIsNegacyclicProduct) {
  // The full Algorithm 2 flow on chip equals the schoolbook negacyclic
  // product -- the end-to-end functional contract of the co-processor.
  // A 109-bit ring runs the 128-bit datapath, a 55-bit one the 64-bit one.
  for (const unsigned bits : {109u, 55u}) {
    SCOPED_TRACE(bits);
    ChipFixture f(128, bits);
    const auto a = f.random_poly(3);
    const auto b = f.random_poly(4);
    f.chip.load_coeffs(Bank::kDp0, 0, a);
    f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
    f.chip.load_coeffs(Bank::kDp0, 0, b);
    f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp2, 0}, 0, 0});
    f.chip.direct_execute({Opcode::kPModMul, {Bank::kDp1, 0}, {Bank::kDp2, 0},
                           {Bank::kDp0, 0}, static_cast<std::uint32_t>(f.n), 0});
    f.chip.direct_execute({Opcode::kIntt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
    EXPECT_EQ(f.chip.read_coeffs(Bank::kDp1, 0, f.n),
              poly::schoolbook_negacyclic_mul(f.ring, a, b));
  }
}

TEST(Mdmc, DegreeOneNttCopiesAndInttScales) {
  // FHECTL1 = 0 programs N = 1: NTT is a copy, iNTT a CMODMUL by
  // INV_POLYDEG, on both datapaths.
  for (const unsigned bits : {109u, 55u}) {
    SCOPED_TRACE(bits);
    ChipFixture f(64, bits);
    f.chip.gpcfg().set_n(1);
    f.chip.gpcfg().set_inv_polydeg(7);
    const u128 x = f.q - 2;
    f.chip.load_coeffs(Bank::kDp0, 0, std::vector<u128>{x});
    f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
    EXPECT_TRUE(f.chip.read_coeffs(Bank::kDp1, 0, 1)[0] == x);
    f.chip.direct_execute({Opcode::kIntt, {Bank::kDp1, 0}, {}, {Bank::kDp2, 0}, 0, 0});
    EXPECT_TRUE(f.chip.read_coeffs(Bank::kDp2, 0, 1)[0] == f.ring.mul(x, 7));
  }
}

TEST(Mdmc, NttRunningOffABankThrowsBeforeAnyWrite) {
  // Operand or destination past the bank's end: std::out_of_range, and no
  // bank word or access count changes.
  ChipFixture f(64);
  Sram& dp0 = f.chip.mem().bank(Bank::kDp0);
  Sram& dp1 = f.chip.mem().bank(Bank::kDp1);
  const std::uint32_t last = static_cast<std::uint32_t>(dp1.words() - f.n / 2);
  dp1.poke(dp1.words() - 1, 5);
  const auto counts = [&] {
    return std::array{dp0.reads(), dp0.writes(), dp1.reads(), dp1.writes()};
  };
  const auto before = counts();
  EXPECT_THROW(f.chip.direct_execute(
                   {Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, last}, 0, 0}),
               std::out_of_range);
  EXPECT_THROW(f.chip.direct_execute(
                   {Opcode::kIntt, {Bank::kDp1, last}, {}, {Bank::kDp0, 0}, 0, 0}),
               std::out_of_range);
  EXPECT_EQ(counts(), before);
  EXPECT_TRUE(dp1.peek(dp1.words() - 1) == 5);
}

TEST(Mdmc, PointwiseOps) {
  ChipFixture f(64);
  const auto a = f.random_poly(5);
  const auto b = f.random_poly(6);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  f.chip.load_coeffs(Bank::kSp1, 0, b);
  const auto len = static_cast<std::uint32_t>(f.n);

  f.chip.direct_execute({Opcode::kPModAdd, {Bank::kSp0, 0}, {Bank::kSp1, 0},
                         {Bank::kSp2, 0}, len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::pointwise_add(f.ring, a, b));

  f.chip.direct_execute({Opcode::kPModSub, {Bank::kSp0, 0}, {Bank::kSp1, 0},
                         {Bank::kSp2, 0}, len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::pointwise_sub(f.ring, a, b));

  f.chip.direct_execute({Opcode::kPModMul, {Bank::kSp0, 0}, {Bank::kSp1, 0},
                         {Bank::kSp2, 0}, len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::pointwise_mul(f.ring, a, b));

  f.chip.direct_execute({Opcode::kPModSqr, {Bank::kSp0, 0}, {}, {Bank::kSp2, 0},
                         len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::pointwise_mul(f.ring, a, a));

  const u128 c = 123456789;
  f.chip.gpcfg().set_cmod_const(c);
  f.chip.direct_execute({Opcode::kCModMul, {Bank::kSp0, 0}, {}, {Bank::kSp2, 0},
                         len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), poly::scalar_mul(f.ring, a, c));
}

TEST(Mdmc, MemCpyAndBitReverse) {
  ChipFixture f(64);
  const auto a = f.random_poly(7);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  const auto len = static_cast<std::uint32_t>(f.n);
  f.chip.direct_execute({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, len, 0});
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp1, 0, f.n), a);
  f.chip.direct_execute({Opcode::kMemCpyR, {Bank::kSp0, 0}, {}, {Bank::kSp2, 0}, len, 0});
  const auto rev = nt::bit_reverse_table(f.n);
  auto expect = a;
  for (std::size_t i = 0; i < f.n; ++i) expect[rev[i]] = a[i];
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp2, 0, f.n), expect);
}

/// The per-word bank move MEMCPY and the DMA made before disjoint ranges
/// moved as one block: word i read, then written, in increasing i.
void per_word_copy(Sram& src, std::size_t src_off, Sram& dst, std::size_t dst_off,
                   std::size_t len, bool bit_reverse) {
  const unsigned logl = bit_reverse ? nt::log2_exact(len) : 0;
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t di = bit_reverse ? nt::bit_reverse(i, logl) : i;
    dst.write(dst_off + di, src.read(src_off + i));
  }
}

TEST(Mdmc, MemCpyAndDmaMatchPerWordCopy) {
  struct Move {
    Bank src;
    std::uint32_t src_off;
    Bank dst;
    std::uint32_t dst_off;
    std::uint32_t len;
    bool bit_reverse;
  };
  const Move moves[] = {
      {Bank::kSp0, 5, Bank::kSp1, 9, 40, false},   // disjoint banks
      {Bank::kSp0, 0, Bank::kSp0, 64, 64, false},  // one bank, disjoint
      {Bank::kSp0, 3, Bank::kSp0, 10, 50, false},  // overlap, dst above src
      {Bank::kSp0, 20, Bank::kSp0, 4, 50, false},  // overlap, dst below src
      {Bank::kSp0, 7, Bank::kSp0, 7, 32, false},   // same range
      {Bank::kDp0, 1, Bank::kDp1, 0, 64, true},    // bit-reversed, disjoint
      {Bank::kDp0, 8, Bank::kDp0, 0, 32, true},    // bit-reversed, overlap
      {Bank::kDp0, 0, Bank::kDp0, 40, 32, true},   // bit-reversed, one bank
  };
  poly::Rng rng(8);
  for (const Move& m : moves) {
    for (const bool dma : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (dma ? "Dma " : "MEMCPY ") << static_cast<int>(m.src) << "+"
                   << m.src_off << " -> " << static_cast<int>(m.dst) << "+" << m.dst_off
                   << " len " << m.len << (m.bit_reverse ? " bit-reversed" : ""));
      CofheeChip chip;
      chip.gpcfg().set_q(97);  // any ring: the moves never reduce
      MemorySystem ref(ChipConfig{});
      for (const Bank b : {m.src, m.dst}) {
        const auto words = poly::sample_uniform128(rng, 256, ~u128{0});
        chip.load_coeffs(b, 0, words);
        for (std::size_t i = 0; i < words.size(); ++i) ref.bank(b).poke(i, words[i]);
        chip.mem().bank(b).reset_counters();
      }
      per_word_copy(ref.bank(m.src), m.src_off, ref.bank(m.dst), m.dst_off, m.len,
                    m.bit_reverse);
      if (dma) {
        chip.dma().transfer({m.src, m.src_off}, {m.dst, m.dst_off}, m.len, m.bit_reverse);
      } else {
        chip.direct_execute({m.bit_reverse ? Opcode::kMemCpyR : Opcode::kMemCpy,
                             {m.src, m.src_off}, {}, {m.dst, m.dst_off}, m.len, 0});
      }
      for (const Bank b : {m.src, m.dst}) {
        const auto want = ref.bank(b).peek_block(0, 256);
        EXPECT_EQ(chip.read_coeffs(b, 0, 256), std::vector<u128>(want.begin(), want.end()));
        EXPECT_EQ(chip.mem().bank(b).reads(), ref.bank(b).reads());
        EXPECT_EQ(chip.mem().bank(b).writes(), ref.bank(b).writes());
      }
    }
  }
}

// ---- Table V cycle calibration: these are the silicon measurements. ----

struct CyclesCase {
  std::size_t n;
  std::uint64_t ntt, intt;
};

class TableVCycles : public ::testing::TestWithParam<CyclesCase> {};

TEST_P(TableVCycles, NttAndInttMatchSilicon) {
  const auto [n, ntt_cc, intt_cc] = GetParam();
  ChipFixture f(n, 60);  // modulus width does not affect cycle counts
  const auto x = f.random_poly(8);
  f.chip.load_coeffs(Bank::kDp0, 0, x);
  const auto c1 =
      f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  EXPECT_EQ(c1, ntt_cc);
  const auto c2 = f.chip.direct_execute(
      {Opcode::kIntt, {Bank::kDp1, 0}, {}, {Bank::kDp0, 0}, 0, 0});
  EXPECT_EQ(c2, intt_cc);
}

INSTANTIATE_TEST_SUITE_P(PaperTableV, TableVCycles,
                         ::testing::Values(CyclesCase{4096, 24841, 29468},
                                           CyclesCase{8192, 53535, 62770}));

TEST(Mdmc, SinglePortNttHasDoubleII) {
  // Section III-C: n >= 2^14 must run from single-port memories at II = 2.
  ChipFixture f(256, 60);
  const auto x = f.random_poly(9);
  f.chip.load_coeffs(Bank::kDp0, 0, x);
  const auto dp = f.chip.direct_execute(
      {Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0}, 0, 0});
  f.chip.load_coeffs(Bank::kSp0, 0, x);
  const auto sp = f.chip.direct_execute(
      {Opcode::kNtt, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, 0, 0});
  const unsigned logn = nt::log2_exact(f.n);
  EXPECT_EQ(dp, f.n / 2 * logn + 22 * logn + 1);
  EXPECT_EQ(sp, f.n * logn + 22 * logn + 1);  // butterflies at II = 2
  // Same functional result either way.
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp1, 0, f.n),
            f.chip.read_coeffs(Bank::kDp1, 0, f.n));
}

TEST(Mdmc, RejectsBadLengths) {
  ChipFixture f(64);
  EXPECT_THROW(f.chip.direct_execute({Opcode::kNtt, {Bank::kDp0, 0}, {}, {Bank::kDp1, 0},
                                      32, 0}),
               std::invalid_argument);
  EXPECT_THROW(f.chip.direct_execute({Opcode::kPModAdd, {Bank::kSp0, 0}, {Bank::kSp1, 0},
                                      {Bank::kSp2, 0}, 1u << 20, 0}),
               std::invalid_argument);
}

TEST(Mdmc, OpDoneIrqRaised) {
  ChipFixture f(64);
  f.chip.gpcfg().clear_irq(~0u);
  const auto a = f.random_poly(10);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  f.chip.direct_execute({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0},
                         static_cast<std::uint32_t>(f.n), 0});
  EXPECT_TRUE(f.chip.gpcfg().irq_pending(kIrqOpDone));
}

TEST(CmdFifoTest, DepthAndOrderAndEmptyIrq) {
  ChipFixture f(64);
  const auto a = f.random_poly(11);
  f.chip.load_coeffs(Bank::kSp0, 0, a);
  const auto len = static_cast<std::uint32_t>(f.n);
  // Chain: SP0 -> SP1 -> SP2 -> SP3; order matters.
  f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, len, 0});
  f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp1, 0}, {}, {Bank::kSp2, 0}, len, 0});
  f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp2, 0}, {}, {Bank::kSp3, 0}, len, 0});
  EXPECT_EQ(f.chip.fifo().size(), 3u);
  f.chip.run_fifo();
  EXPECT_EQ(f.chip.read_coeffs(Bank::kSp3, 0, f.n), a);
  EXPECT_TRUE(f.chip.gpcfg().irq_pending(kIrqFifoEmpty));
  EXPECT_EQ(f.chip.fifo().depth(), 32u);  // Section III-I
}

TEST(CmdFifoTest, OverflowThrows) {
  ChipFixture f(64);
  for (int i = 0; i < 32; ++i)
    f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, 8, 0});
  EXPECT_THROW(
      f.chip.fifo().push({Opcode::kMemCpy, {Bank::kSp0, 0}, {}, {Bank::kSp1, 0}, 8, 0}),
      std::overflow_error);
}

TEST(ChipTop, BusMappedBankAccessMatchesBackdoor) {
  ChipFixture f(64);
  auto& bus = f.chip.bus();
  const u128 v = (static_cast<u128>(0x1122334455667788ull) << 64) | 0x99AABBCCDDEEFF00ull;
  bus.write128(BusMaster::kHostSpi, MemoryMap::kDataSramBase, v);
  EXPECT_EQ(f.chip.read_coeffs(Bank::kDp0, 0, 1)[0], v);
  // Dual-port banks respond identically through the port-B address space.
  const u128 back = bus.read128(BusMaster::kHostSpi,
                                MemoryMap::kDataSramBase + MemoryMap::kPortBOffset);
  EXPECT_EQ(back, v);
}

TEST(ChipTop, GpcfgReachableOverBus) {
  ChipFixture f(64);
  const auto sig = f.chip.bus().read32(BusMaster::kHostUart, MemoryMap::kGpcfgBase);
  EXPECT_EQ(sig, kSignatureValue);
}

}  // namespace
}  // namespace cofhee::chip
