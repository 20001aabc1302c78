// SIMD kernel dispatch for the host-side 64-bit tower hot paths.
//
// HEAAN Demystified's analysis (PAPERS.md) shows the host kernels of an FHE
// stack are memory-bandwidth-bound: the win is not only wider multiplies but
// fewer passes over coefficient memory.  This layer provides both halves of
// that bargain for the u64 RNS towers:
//
//  * ISA lanes.  Each kernel exists as a scalar reference, an AVX2 lane
//    (x86-64, 64x64 products assembled from four 32x32 partials, HEXL-style),
//    an AVX-512 lane (x86-64 AVX-512F + DQ: eight lanes, native low
//    products, mask-register conditional subtractions) and a NEON lane
//    (aarch64, vmull_u32 partials).  Lanes are selected at run time --
//    `active_isa()` picks the best lane the CPU supports -- and at configure
//    time: building with -DCOFHEE_SIMD=OFF compiles every vector lane out,
//    leaving only the scalar reference.  `force_isa()` lets the differential
//    battery pin a specific lane.
//
//  * Whole transforms.  The NTT entries run every stage of a transform
//    inside the lane: stages whose butterfly groups span a vector take
//    broadcast twiddles, and the short tail stages run in registers on
//    blocks of contiguous words (8 words for AVX2, 16 for AVX-512), so a
//    transform is one call (HEAX, PAPERS.md, builds its NTT as one
//    pipelined unit for the same reason).  Below one block (n < 8 resp.
//    16) a vector lane runs the scalar body.
//
//  * Lazy (redundant) representation.  The butterflies keep values in a
//    redundant range -- [0, 4q) through the forward (CT) stages, [0, 2q)
//    through the inverse (GS) stages -- and canonicalize once per transform
//    (Harvey, "Faster arithmetic for number-theoretic transforms"): the
//    forward transform in one pass (folded into the last stage on AVX2 and
//    AVX-512), the inverse in its n^-1 Shoup pass.  This removes two
//    conditional subtractions per butterfly.  Valid for q < 2^62, which
//    Barrett64 already enforces.
//
// Every kernel is bit-exact against its scalar reference: the vector lanes
// execute the identical integer recurrence per butterfly (same shifts, same
// estimate, same fixed number of conditional subtractions), so the lanes
// agree word for word.  tests/nt/test_simd_kernels.cpp holds that contract.
#pragma once

#include <cstddef>

#include "nt/wide_int.hpp"

namespace cofhee::nt::simd {

/// Instruction-set lanes a kernel can dispatch to.
enum class Isa : unsigned {
  kScalar = 0,  ///< portable reference lane, always compiled
  kAvx2 = 1,    ///< x86-64 AVX2 lane (four 64-bit values per vector)
  kNeon = 2,    ///< aarch64 NEON lane (two 64-bit values per vector)
  kAvx512 = 3,  ///< x86-64 AVX-512F + DQ lane (eight 64-bit values per vector)
};

/// Human-readable lane name ("scalar", "avx2", "neon", "avx512").
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// True when `isa` was compiled in AND the running CPU supports it.
/// kScalar is always available; vector lanes are compiled out entirely
/// under -DCOFHEE_SIMD=OFF.
[[nodiscard]] bool available(Isa isa) noexcept;

/// The lane kernels dispatch to: the forced lane if one is set, else the
/// best available lane for this CPU.
[[nodiscard]] Isa active_isa() noexcept;

/// Pin dispatch to a specific lane (test hook; also how the runtime-dispatch
/// fallback is exercised).  Returns false -- and changes nothing -- when the
/// lane is unavailable.
bool force_isa(Isa isa) noexcept;

/// Drop any force_isa() pin and return to automatic detection.
void clear_forced_isa() noexcept;

/// One resolved set of kernel entry points (a single lane).  kernels()
/// resolves it once per call site, so a dispatch is one plain indirect
/// call, not a re-detection.
struct KernelTable {
  /// Forward negacyclic NTT of x[0, n) in place (CT/DIT, natural in,
  /// bit-reversed out), n a power of two.  w[i] = psi^rev(i) is the twiddle
  /// ROM and ws[i] = floor(w[i] * 2^64 / q) its Shoup companions; stage m
  /// (m = 1, 2, ..., n/2 groups of t = n/2m pairs) uses w[m + i] for group
  /// i.  Inputs in [0, 4q), canonical out; each butterfly, lazy in [0, 4q):
  ///   u = x - (x >= 2q ? 2q : 0);  v = w * y - mulhi(ws, y) * q
  ///   x = u + v;  y = u - v + 2q
  void (*ntt_forward)(u64* x, std::size_t n, const u64* w, const u64* ws,
                      u64 q);
  /// Inverse negacyclic NTT (GS/DIF, bit-reversed in, natural out) over the
  /// mirrored table w[i] = psi^-rev(i): stage t = 1, 2, ..., n/2 uses
  /// w[n/2t + i] for group i.  Each butterfly, lazy in [0, 2q):
  ///   s = x + y;  x = s - (s >= 2q ? 2q : 0);  y = shoup(w, x - y + 2q)
  /// then one Shoup pass by n_inv (n_inv_shoup its companion) that also
  /// canonicalizes.  Inputs in [0, 2q), canonical out.
  void (*ntt_inverse)(u64* x, std::size_t n, const u64* w, const u64* ws,
                      u64 n_inv, u64 n_inv_shoup, u64 q);
  /// dst[i] = a[i] * b[i] mod q by Barrett reduction -- the identical
  /// recurrence as Barrett64::reduce (mu = floor(2^2k / q), k = bits(q)).
  /// Canonical inputs (< q), canonical output.
  void (*pointwise_mul)(u64* dst, const u64* a, const u64* b, std::size_t len,
                        u64 q, u64 mu, unsigned k);
  /// dst[i] = (dst[i] + a[i] * b[i] mod q) mod q -- the fused
  /// multiply-accumulate used by the middle tensor component.
  void (*pointwise_mul_acc)(u64* dst, const u64* a, const u64* b,
                            std::size_t len, u64 q, u64 mu, unsigned k);
  /// x[i] = w * x[i] mod q by canonical Shoup multiplication (ShoupMul::mul
  /// semantics); accepts *any* u64 input.
  void (*scalar_mul_shoup)(u64* x, std::size_t len, u64 w, u64 wshoup, u64 q);
};

/// Kernel table of the active lane.
[[nodiscard]] const KernelTable& kernels() noexcept;

/// Kernel table of a specific lane; throws std::invalid_argument when the
/// lane is unavailable (compiled out or unsupported by this CPU).
[[nodiscard]] const KernelTable& kernels_for(Isa isa);

}  // namespace cofhee::nt::simd
