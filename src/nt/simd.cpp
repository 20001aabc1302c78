#include "nt/simd.hpp"

#include <atomic>
#include <stdexcept>
#include <string>

#ifndef COFHEE_SIMD
#define COFHEE_SIMD 1
#endif

#if COFHEE_SIMD && (defined(__x86_64__) || defined(_M_X64))
#define COFHEE_SIMD_AVX2 1
#include <immintrin.h>
#else
#define COFHEE_SIMD_AVX2 0
#endif

#if COFHEE_SIMD && defined(__aarch64__)
#define COFHEE_SIMD_NEON 1
#include <arm_neon.h>
#else
#define COFHEE_SIMD_NEON 0
#endif

namespace cofhee::nt::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar lane -- the reference every vector lane is differentially tested
// against.  The vector lanes below execute these exact recurrences.
// ---------------------------------------------------------------------------

inline u64 mulhi64(u64 a, u64 b) noexcept {
  return static_cast<u64>((static_cast<u128>(a) * b) >> 64);
}

// Lazy Shoup product: w * x mod q plus possibly one extra q, i.e. a value in
// [0, 2q).  Valid for any 64-bit x when w < q (Harvey).
inline u64 shoup_lazy(u64 x, u64 w, u64 wshoup, u64 q) noexcept {
  return w * x - mulhi64(wshoup, x) * q;
}

// One lazy CT butterfly, [0, 4q) in and out:
//   u = x - (x >= 2q ? 2q : 0);  v = shoup_lazy(y);  x = u + v;  y = u - v + 2q
inline void ct_pair(u64& x, u64& y, u64 w, u64 wshoup, u64 q) noexcept {
  const u64 u = x >= 2 * q ? x - 2 * q : x;
  const u64 v = shoup_lazy(y, w, wshoup, q);
  x = u + v;
  y = u - v + 2 * q;
}

// One lazy GS butterfly, [0, 2q) in and out:
//   x = (x + y) - (x + y >= 2q ? 2q : 0);  y = shoup_lazy(x - y + 2q)
inline void gs_pair(u64& x, u64& y, u64 w, u64 wshoup, u64 q) noexcept {
  const u64 s = x + y;
  y = shoup_lazy(x - y + 2 * q, w, wshoup, q);
  x = s >= 2 * q ? s - 2 * q : s;
}

// The forward CT stages from m0 groups (t = n / 2m0) down to t = 1, then one
// pass mapping [0, 4q) to [0, q) with two fixed conditional subtractions.
void ntt_forward_from(u64* x, std::size_t n, std::size_t m0, const u64* w,
                      const u64* ws, u64 q) {
  for (std::size_t m = m0, t = n / (2 * m0); m < n; m <<= 1, t >>= 1)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 2 * i * t; j < (2 * i + 1) * t; ++j)
        ct_pair(x[j], x[j + t], w[m + i], ws[m + i], q);
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] >= 2 * q) x[i] -= 2 * q;
    if (x[i] >= q) x[i] -= q;
  }
}

void ntt_forward_scalar(u64* x, std::size_t n, const u64* w, const u64* ws,
                        u64 q) {
  ntt_forward_from(x, n, 1, w, ws, q);
}

// The inverse GS stages t = 1, 2, ... below t_end (n / 2t groups each).
void gs_stages(u64* x, std::size_t n, std::size_t t_end, const u64* w,
               const u64* ws, u64 q) {
  for (std::size_t t = 1, h = n / 2; t < t_end; t <<= 1, h >>= 1)
    for (std::size_t i = 0; i < h; ++i)
      for (std::size_t j = 2 * i * t; j < (2 * i + 1) * t; ++j)
        gs_pair(x[j], x[j + t], w[h + i], ws[h + i], q);
}

// Barrett64::reduce with the quotient-estimate shifts unrolled and the
// (at most two) trailing subtractions made unconditional-count so the
// vector lanes can mirror it step for step.
inline u64 barrett_mul_one(u64 a, u64 b, u64 q, u64 mu, unsigned k) noexcept {
  const u128 x = static_cast<u128>(a) * b;
  const u64 q1 = static_cast<u64>(x >> (k - 1));
  const u64 q3 = static_cast<u64>((static_cast<u128>(q1) * mu) >> (k + 1));
  u64 r = static_cast<u64>(x) - q3 * q;  // < 3q, wraparound intentional
  if (r >= q) r -= q;
  if (r >= q) r -= q;
  return r;
}

void pointwise_mul_scalar(u64* dst, const u64* a, const u64* b,
                          std::size_t len, u64 q, u64 mu, unsigned k) {
  for (std::size_t i = 0; i < len; ++i) dst[i] = barrett_mul_one(a[i], b[i], q, mu, k);
}

void pointwise_mul_acc_scalar(u64* dst, const u64* a, const u64* b,
                              std::size_t len, u64 q, u64 mu, unsigned k) {
  for (std::size_t i = 0; i < len; ++i) {
    const u64 p = barrett_mul_one(a[i], b[i], q, mu, k);
    const u64 s = dst[i] + p;
    dst[i] = s >= q ? s - q : s;
  }
}

void scalar_mul_shoup_scalar(u64* x, std::size_t len, u64 w, u64 wshoup,
                             u64 q) {
  for (std::size_t i = 0; i < len; ++i) {
    u64 r = shoup_lazy(x[i], w, wshoup, q);
    if (r >= q) r -= q;
    x[i] = r;
  }
}

// The inverse stages, then the Shoup n^-1 scale, which accepts the lazy
// [0, 2q) stage output and emits canonical residues.
void ntt_inverse_scalar(u64* x, std::size_t n, const u64* w, const u64* ws,
                        u64 n_inv, u64 n_inv_shoup, u64 q) {
  gs_stages(x, n, n, w, ws, q);
  scalar_mul_shoup_scalar(x, n, n_inv, n_inv_shoup, q);
}

constexpr KernelTable kScalarTable = {
    ntt_forward_scalar,      ntt_inverse_scalar,      pointwise_mul_scalar,
    pointwise_mul_acc_scalar, scalar_mul_shoup_scalar,
};

// ---------------------------------------------------------------------------
// AVX2 lane.  AVX2 has no 64x64 multiply, so the 128-bit products are built
// from four 32x32 partials (_mm256_mul_epu32) exactly as Intel HEXL does;
// unsigned 64-bit compares go through the sign-bit flip + signed cmpgt
// trick.  Tail elements (< 4) fall through to the scalar lane, which keeps
// the vector/scalar outputs identical at every length.
// ---------------------------------------------------------------------------
#if COFHEE_SIMD_AVX2

#define COFHEE_AVX2_FN __attribute__((target("avx2")))

COFHEE_AVX2_FN inline __m256i ld4(const u64* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
COFHEE_AVX2_FN inline void st4(u64* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
COFHEE_AVX2_FN inline __m256i bc4(u64 v) noexcept {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

COFHEE_AVX2_FN inline __m256i mm_mulhi_epu64(__m256i a, __m256i b) noexcept {
  const __m256i lomask = bc4(0xffffffffULL);
  const __m256i a_hi = _mm256_srli_epi64(a, 32), b_hi = _mm256_srli_epi64(b, 32);
  const __m256i p01 = _mm256_mul_epu32(a, b_hi), p10 = _mm256_mul_epu32(a_hi, b);
  const __m256i mid = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(_mm256_mul_epu32(a, b), 32),
                       _mm256_and_si256(p01, lomask)),
      _mm256_and_si256(p10, lomask));
  return _mm256_add_epi64(
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b_hi), _mm256_srli_epi64(p01, 32)),
      _mm256_add_epi64(_mm256_srli_epi64(p10, 32), _mm256_srli_epi64(mid, 32)));
}

COFHEE_AVX2_FN inline __m256i mm_mullo_epu64(__m256i a, __m256i b) noexcept {
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
                                         _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32));
}

// a - (a >= m ? m : 0), unsigned.
COFHEE_AVX2_FN inline __m256i mm_csub_epu64(__m256i a, __m256i m) noexcept {
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i lt = _mm256_cmpgt_epi64(_mm256_xor_si256(m, sign),
                                        _mm256_xor_si256(a, sign));
  return _mm256_sub_epi64(a, _mm256_andnot_si256(lt, m));
}

// shoup_lazy on four lanes.
COFHEE_AVX2_FN inline __m256i mm_shoup(__m256i x, __m256i w, __m256i ws,
                                       __m256i vq) noexcept {
  return _mm256_sub_epi64(mm_mullo_epu64(w, x),
                          mm_mullo_epu64(mm_mulhi_epu64(ws, x), vq));
}

// ct_pair / gs_pair on four pairs (a[i], b[i]).
COFHEE_AVX2_FN inline void ct4(__m256i& a, __m256i& b, __m256i w, __m256i ws,
                               __m256i vq, __m256i vq2) noexcept {
  const __m256i u = mm_csub_epu64(a, vq2);
  const __m256i v = mm_shoup(b, w, ws, vq);
  a = _mm256_add_epi64(u, v);
  b = _mm256_add_epi64(_mm256_sub_epi64(u, v), vq2);
}
COFHEE_AVX2_FN inline void gs4(__m256i& a, __m256i& b, __m256i w, __m256i ws,
                               __m256i vq, __m256i vq2) noexcept {
  const __m256i d = _mm256_add_epi64(_mm256_sub_epi64(a, b), vq2);
  a = mm_csub_epu64(_mm256_add_epi64(a, b), vq2);
  b = mm_shoup(d, w, ws, vq);
}

// {p[0], p[0], p[1], p[1]}: the twiddles of the t = 2 stage in a block.
COFHEE_AVX2_FN inline __m256i pair2(const u64* p) noexcept {
  return _mm256_permute4x64_epi64(
      _mm256_castsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
      0x50);
}

// The stages with t >= 8 take broadcast twiddles.  The t = 4, 2, 1 stages
// run in registers on each 8-word block: halves a = x[0..4), b = x[4..8),
// then permute2x128 pairs (x0 x1 x4 x5 | x2 x3 x6 x7) and unpacklo/hi pairs
// (x0 x2 x4 x6 | x1 x3 x5 x7).  The t = 1 stage canonicalizes.
COFHEE_AVX2_FN void ntt_forward_avx2(u64* x, std::size_t n, const u64* w,
                                     const u64* ws, u64 q) {
  if (n < 8) return ntt_forward_scalar(x, n, w, ws, q);
  const __m256i vq = bc4(q), vq2 = bc4(2 * q);
  std::size_t m = 1;
  for (std::size_t t = n / 2; t >= 8; m <<= 1, t >>= 1)
    for (std::size_t i = 0; i < m; ++i) {
      const __m256i vw = bc4(w[m + i]), vws = bc4(ws[m + i]);
      for (u64* p = x + 2 * i * t; p < x + (2 * i + 1) * t; p += 4) {
        __m256i a = ld4(p), b = ld4(p + t);
        ct4(a, b, vw, vws, vq, vq2);
        st4(p, a);
        st4(p + t, b);
      }
    }
  for (std::size_t i = 0; i < m; ++i) {  // m == n / 8
    __m256i a = ld4(x + 8 * i), b = ld4(x + 8 * i + 4);
    ct4(a, b, bc4(w[m + i]), bc4(ws[m + i]), vq, vq2);
    __m256i c = _mm256_permute2x128_si256(a, b, 0x20);
    __m256i d = _mm256_permute2x128_si256(a, b, 0x31);
    ct4(c, d, pair2(w + 2 * (m + i)), pair2(ws + 2 * (m + i)), vq, vq2);
    a = _mm256_unpacklo_epi64(c, d);
    b = _mm256_unpackhi_epi64(c, d);
    ct4(a, b, ld4(w + 4 * (m + i)), ld4(ws + 4 * (m + i)), vq, vq2);
    a = mm_csub_epu64(mm_csub_epu64(a, vq2), vq);
    b = mm_csub_epu64(mm_csub_epu64(b, vq2), vq);
    c = _mm256_unpacklo_epi64(a, b);
    d = _mm256_unpackhi_epi64(a, b);
    st4(x + 8 * i, _mm256_permute2x128_si256(c, d, 0x20));
    st4(x + 8 * i + 4, _mm256_permute2x128_si256(c, d, 0x31));
  }
}

// One Barrett product vector: identical shift/estimate recurrence as
// barrett_mul_one, two fixed conditional subtractions.
COFHEE_AVX2_FN inline __m256i mm_barrett_mul(__m256i a, __m256i b, __m256i vq,
                                             __m256i vmu, unsigned k) noexcept {
  const __m128i sh_lo = _mm_cvtsi32_si128(static_cast<int>(k - 1));
  const __m128i sh_lo_c = _mm_cvtsi32_si128(static_cast<int>(65 - k));
  const __m128i sh_hi = _mm_cvtsi32_si128(static_cast<int>(k + 1));
  const __m128i sh_hi_c = _mm_cvtsi32_si128(static_cast<int>(63 - k));
  const __m256i xlo = mm_mullo_epu64(a, b);
  const __m256i xhi = mm_mulhi_epu64(a, b);
  const __m256i q1 = _mm256_or_si256(_mm256_srl_epi64(xlo, sh_lo),
                                     _mm256_sll_epi64(xhi, sh_lo_c));
  const __m256i q2lo = mm_mullo_epu64(q1, vmu);
  const __m256i q2hi = mm_mulhi_epu64(q1, vmu);
  const __m256i q3 = _mm256_or_si256(_mm256_srl_epi64(q2lo, sh_hi),
                                     _mm256_sll_epi64(q2hi, sh_hi_c));
  __m256i r = _mm256_sub_epi64(xlo, mm_mullo_epu64(q3, vq));
  r = mm_csub_epu64(r, vq);
  return mm_csub_epu64(r, vq);
}

COFHEE_AVX2_FN void pointwise_mul_avx2(u64* dst, const u64* a, const u64* b,
                                       std::size_t len, u64 q, u64 mu,
                                       unsigned k) {
  const __m256i vq = bc4(q), vmu = bc4(mu);
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4)
    st4(dst + i, mm_barrett_mul(ld4(a + i), ld4(b + i), vq, vmu, k));
  if (i < len) pointwise_mul_scalar(dst + i, a + i, b + i, len - i, q, mu, k);
}

COFHEE_AVX2_FN void pointwise_mul_acc_avx2(u64* dst, const u64* a,
                                           const u64* b, std::size_t len,
                                           u64 q, u64 mu, unsigned k) {
  const __m256i vq = bc4(q), vmu = bc4(mu);
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256i p = mm_barrett_mul(ld4(a + i), ld4(b + i), vq, vmu, k);
    st4(dst + i, mm_csub_epu64(_mm256_add_epi64(ld4(dst + i), p), vq));
  }
  if (i < len) pointwise_mul_acc_scalar(dst + i, a + i, b + i, len - i, q, mu, k);
}

COFHEE_AVX2_FN void scalar_mul_shoup_avx2(u64* x, std::size_t len, u64 w,
                                          u64 wshoup, u64 q) {
  const __m256i vq = bc4(q), vw = bc4(w), vws = bc4(wshoup);
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4)
    st4(x + i, mm_csub_epu64(mm_shoup(ld4(x + i), vw, vws, vq), vq));
  if (i < len) scalar_mul_shoup_scalar(x + i, len - i, w, wshoup, q);
}

// The mirror of ntt_forward_avx2: the t = 1, 2, 4 stages in registers per
// 8-word block, then the broadcast-twiddle stages, then the n^-1 pass.
COFHEE_AVX2_FN void ntt_inverse_avx2(u64* x, std::size_t n, const u64* w,
                                     const u64* ws, u64 n_inv, u64 n_inv_shoup,
                                     u64 q) {
  if (n < 8) return ntt_inverse_scalar(x, n, w, ws, n_inv, n_inv_shoup, q);
  const __m256i vq = bc4(q), vq2 = bc4(2 * q);
  const std::size_t h = n / 8;
  for (std::size_t i = 0; i < h; ++i) {
    __m256i a = ld4(x + 8 * i), b = ld4(x + 8 * i + 4);
    __m256i c = _mm256_permute2x128_si256(a, b, 0x20);
    __m256i d = _mm256_permute2x128_si256(a, b, 0x31);
    a = _mm256_unpacklo_epi64(c, d);
    b = _mm256_unpackhi_epi64(c, d);
    gs4(a, b, ld4(w + 4 * (h + i)), ld4(ws + 4 * (h + i)), vq, vq2);
    c = _mm256_unpacklo_epi64(a, b);
    d = _mm256_unpackhi_epi64(a, b);
    gs4(c, d, pair2(w + 2 * (h + i)), pair2(ws + 2 * (h + i)), vq, vq2);
    a = _mm256_permute2x128_si256(c, d, 0x20);
    b = _mm256_permute2x128_si256(c, d, 0x31);
    gs4(a, b, bc4(w[h + i]), bc4(ws[h + i]), vq, vq2);
    st4(x + 8 * i, a);
    st4(x + 8 * i + 4, b);
  }
  for (std::size_t t = 8, g = n / 16; t < n; t <<= 1, g >>= 1)
    for (std::size_t i = 0; i < g; ++i) {
      const __m256i vw = bc4(w[g + i]), vws = bc4(ws[g + i]);
      for (u64* p = x + 2 * i * t; p < x + (2 * i + 1) * t; p += 4) {
        __m256i a = ld4(p), b = ld4(p + t);
        gs4(a, b, vw, vws, vq, vq2);
        st4(p, a);
        st4(p + t, b);
      }
    }
  scalar_mul_shoup_avx2(x, n, n_inv, n_inv_shoup, q);
}

constexpr KernelTable kAvx2Table = {
    ntt_forward_avx2,      ntt_inverse_avx2,      pointwise_mul_avx2,
    pointwise_mul_acc_avx2, scalar_mul_shoup_avx2,
};

// ---------------------------------------------------------------------------
// AVX-512 lane (AVX-512F + DQ): whole transforms on eight-lane vectors with
// native 64-bit low products and mask-register conditional subtractions.
// The high products still come from four 32x32 partials.  Its pointwise
// and scalar-multiply entries are the AVX2 bodies.
// ---------------------------------------------------------------------------

#define COFHEE_AVX512_FN __attribute__((target("avx512f,avx512dq")))
// GCC 12's AVX-512 intrinsics seed their pass-through operand from a
// self-initialized _mm512_undefined_epi32(), which -Wmaybe-uninitialized
// reports at every inlined use (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

COFHEE_AVX512_FN inline __m512i ld8(const u64* p) noexcept {
  return _mm512_loadu_si512(p);
}
COFHEE_AVX512_FN inline void st8(u64* p, __m512i v) noexcept {
  _mm512_storeu_si512(p, v);
}
COFHEE_AVX512_FN inline __m512i bc8(u64 v) noexcept {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

COFHEE_AVX512_FN inline __m512i mulhi8(__m512i a, __m512i b) noexcept {
  const __m512i lomask = bc8(0xffffffffULL);
  const __m512i a_hi = _mm512_srli_epi64(a, 32), b_hi = _mm512_srli_epi64(b, 32);
  const __m512i p01 = _mm512_mul_epu32(a, b_hi), p10 = _mm512_mul_epu32(a_hi, b);
  const __m512i mid = _mm512_add_epi64(
      _mm512_add_epi64(_mm512_srli_epi64(_mm512_mul_epu32(a, b), 32),
                       _mm512_and_si512(p01, lomask)),
      _mm512_and_si512(p10, lomask));
  return _mm512_add_epi64(
      _mm512_add_epi64(_mm512_mul_epu32(a_hi, b_hi), _mm512_srli_epi64(p01, 32)),
      _mm512_add_epi64(_mm512_srli_epi64(p10, 32), _mm512_srli_epi64(mid, 32)));
}

COFHEE_AVX512_FN inline __m512i csub8(__m512i a, __m512i m) noexcept {
  return _mm512_mask_sub_epi64(a, _mm512_cmpge_epu64_mask(a, m), a, m);
}

COFHEE_AVX512_FN inline __m512i shoup8(__m512i x, __m512i w, __m512i ws,
                                       __m512i vq) noexcept {
  return _mm512_sub_epi64(_mm512_mullo_epi64(w, x),
                          _mm512_mullo_epi64(mulhi8(ws, x), vq));
}

COFHEE_AVX512_FN inline void ct8(__m512i& a, __m512i& b, __m512i w, __m512i ws,
                                 __m512i vq, __m512i vq2) noexcept {
  const __m512i u = csub8(a, vq2);
  const __m512i v = shoup8(b, w, ws, vq);
  a = _mm512_add_epi64(u, v);
  b = _mm512_add_epi64(_mm512_sub_epi64(u, v), vq2);
}
COFHEE_AVX512_FN inline void gs8(__m512i& a, __m512i& b, __m512i w, __m512i ws,
                                 __m512i vq, __m512i vq2) noexcept {
  const __m512i d = _mm512_add_epi64(_mm512_sub_epi64(a, b), vq2);
  a = csub8(_mm512_add_epi64(a, b), vq2);
  b = shoup8(d, w, ws, vq);
}

// A 16-word block lives in two vectors (a, b) whose lanes pair up as one
// stage's butterflies: layout L8 is (x0..x7 | x8..x15), L4 (x0..x3 x8..x11
// | x4..x7 x12..x15), L2 (x0 x1 x4 x5 .. | x2 x3 x6 x7 ..), L1 (even words
// | odd words).  kMove[s] holds the permutex2var indices of one move:
// L8<->L4, L4<->L2, L2<->L1 (each its own inverse), L8->L1 and L1->L8.
alignas(64) constexpr long long kMove[5][2][8] = {
    {{0, 1, 2, 3, 8, 9, 10, 11}, {4, 5, 6, 7, 12, 13, 14, 15}},
    {{0, 1, 8, 9, 4, 5, 12, 13}, {2, 3, 10, 11, 6, 7, 14, 15}},
    {{0, 8, 2, 10, 4, 12, 6, 14}, {1, 9, 3, 11, 5, 13, 7, 15}},
    {{0, 2, 4, 6, 8, 10, 12, 14}, {1, 3, 5, 7, 9, 11, 13, 15}},
    {{0, 8, 1, 9, 2, 10, 3, 11}, {4, 12, 5, 13, 6, 14, 7, 15}},
};
// Twiddle spreads over the first four words: p[0] x4 p[1] x4 (L4), and
// p[0] p[0] p[1] p[1] p[2] p[2] p[3] p[3] (L2).
alignas(64) constexpr long long kSpread[2][8] = {{0, 0, 0, 0, 1, 1, 1, 1},
                                                 {0, 0, 1, 1, 2, 2, 3, 3}};

COFHEE_AVX512_FN inline void move8(__m512i& a, __m512i& b, int s) noexcept {
  const __m512i lo = _mm512_permutex2var_epi64(a, _mm512_load_si512(kMove[s][0]), b);
  b = _mm512_permutex2var_epi64(a, _mm512_load_si512(kMove[s][1]), b);
  a = lo;
}
COFHEE_AVX512_FN inline __m512i spread8(const u64* p, int s) noexcept {
  const __m256i four = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  return _mm512_permutexvar_epi64(_mm512_load_si512(kSpread[s]),
                                  _mm512_castsi256_si512(four));
}

COFHEE_AVX512_FN void ntt_forward_avx512(u64* x, std::size_t n, const u64* w,
                                         const u64* ws, u64 q) {
  if (n < 16) return ntt_forward_scalar(x, n, w, ws, q);
  const __m512i vq = bc8(q), vq2 = bc8(2 * q);
  std::size_t m = 1;
  for (std::size_t t = n / 2; t >= 16; m <<= 1, t >>= 1)
    for (std::size_t i = 0; i < m; ++i) {
      const __m512i vw = bc8(w[m + i]), vws = bc8(ws[m + i]);
      for (u64* p = x + 2 * i * t; p < x + (2 * i + 1) * t; p += 8) {
        __m512i a = ld8(p), b = ld8(p + t);
        ct8(a, b, vw, vws, vq, vq2);
        st8(p, a);
        st8(p + t, b);
      }
    }
  for (std::size_t i = 0; i < m; ++i) {  // m == n / 16: t = 8, 4, 2, 1
    __m512i a = ld8(x + 16 * i), b = ld8(x + 16 * i + 8);
    ct8(a, b, bc8(w[m + i]), bc8(ws[m + i]), vq, vq2);
    move8(a, b, 0);
    ct8(a, b, spread8(w + 2 * (m + i), 0), spread8(ws + 2 * (m + i), 0), vq, vq2);
    move8(a, b, 1);
    ct8(a, b, spread8(w + 4 * (m + i), 1), spread8(ws + 4 * (m + i), 1), vq, vq2);
    move8(a, b, 2);
    ct8(a, b, ld8(w + 8 * (m + i)), ld8(ws + 8 * (m + i)), vq, vq2);
    a = csub8(csub8(a, vq2), vq);
    b = csub8(csub8(b, vq2), vq);
    move8(a, b, 4);
    st8(x + 16 * i, a);
    st8(x + 16 * i + 8, b);
  }
}

COFHEE_AVX512_FN void ntt_inverse_avx512(u64* x, std::size_t n, const u64* w,
                                         const u64* ws, u64 n_inv,
                                         u64 n_inv_shoup, u64 q) {
  if (n < 16) return ntt_inverse_scalar(x, n, w, ws, n_inv, n_inv_shoup, q);
  const __m512i vq = bc8(q), vq2 = bc8(2 * q);
  const std::size_t h = n / 16;
  for (std::size_t i = 0; i < h; ++i) {  // t = 1, 2, 4, 8
    __m512i a = ld8(x + 16 * i), b = ld8(x + 16 * i + 8);
    move8(a, b, 3);
    gs8(a, b, ld8(w + 8 * (h + i)), ld8(ws + 8 * (h + i)), vq, vq2);
    move8(a, b, 2);
    gs8(a, b, spread8(w + 4 * (h + i), 1), spread8(ws + 4 * (h + i), 1), vq, vq2);
    move8(a, b, 1);
    gs8(a, b, spread8(w + 2 * (h + i), 0), spread8(ws + 2 * (h + i), 0), vq, vq2);
    move8(a, b, 0);
    gs8(a, b, bc8(w[h + i]), bc8(ws[h + i]), vq, vq2);
    st8(x + 16 * i, a);
    st8(x + 16 * i + 8, b);
  }
  for (std::size_t t = 16, g = n / 32; t < n; t <<= 1, g >>= 1)
    for (std::size_t i = 0; i < g; ++i) {
      const __m512i vw = bc8(w[g + i]), vws = bc8(ws[g + i]);
      for (u64* p = x + 2 * i * t; p < x + (2 * i + 1) * t; p += 8) {
        __m512i a = ld8(p), b = ld8(p + t);
        gs8(a, b, vw, vws, vq, vq2);
        st8(p, a);
        st8(p + t, b);
      }
    }
  const __m512i vni = bc8(n_inv), vnis = bc8(n_inv_shoup);
  for (u64* p = x; p < x + n; p += 8) st8(p, csub8(shoup8(ld8(p), vni, vnis, vq), vq));
}

constexpr KernelTable kAvx512Table = {
    ntt_forward_avx512,    ntt_inverse_avx512,    pointwise_mul_avx2,
    pointwise_mul_acc_avx2, scalar_mul_shoup_avx2,
};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // COFHEE_SIMD_AVX2

// ---------------------------------------------------------------------------
// NEON lane (aarch64).  64x64 products from vmull_u32 partials; aarch64
// provides a native unsigned 64-bit compare (vcgeq_u64), so the conditional
// subtraction is a compare-and-mask.  The transforms run their t >= 2
// stages on two-lane vectors and the t = 1 stage on the scalar body.
// ---------------------------------------------------------------------------
#if COFHEE_SIMD_NEON

inline uint64x2_t nn_mulhi_epu64(uint64x2_t a, uint64x2_t b) noexcept {
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_lo = vmovn_u64(b);
  const uint32x2_t b_hi = vshrn_n_u64(b, 32);
  const uint64x2_t p00 = vmull_u32(a_lo, b_lo);
  const uint64x2_t p01 = vmull_u32(a_lo, b_hi);
  const uint64x2_t p10 = vmull_u32(a_hi, b_lo);
  const uint64x2_t p11 = vmull_u32(a_hi, b_hi);
  const uint64x2_t lomask = vdupq_n_u64(0xffffffffULL);
  const uint64x2_t mid = vaddq_u64(
      vaddq_u64(vshrq_n_u64(p00, 32), vandq_u64(p01, lomask)),
      vandq_u64(p10, lomask));
  return vaddq_u64(vaddq_u64(p11, vshrq_n_u64(p01, 32)),
                   vaddq_u64(vshrq_n_u64(p10, 32), vshrq_n_u64(mid, 32)));
}

inline uint64x2_t nn_mullo_epu64(uint64x2_t a, uint64x2_t b) noexcept {
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_lo = vmovn_u64(b);
  const uint32x2_t b_hi = vshrn_n_u64(b, 32);
  const uint64x2_t cross = vaddq_u64(vmull_u32(a_lo, b_hi), vmull_u32(a_hi, b_lo));
  return vaddq_u64(vmull_u32(a_lo, b_lo), vshlq_n_u64(cross, 32));
}

inline uint64x2_t nn_csub_u64(uint64x2_t a, uint64x2_t m) noexcept {
  return vsubq_u64(a, vandq_u64(vcgeq_u64(a, m), m));
}

inline uint64x2_t nn_shoup(uint64x2_t x, uint64x2_t w, uint64x2_t ws,
                           uint64x2_t vq) noexcept {
  return vsubq_u64(nn_mullo_epu64(w, x), nn_mullo_epu64(nn_mulhi_epu64(ws, x), vq));
}

void ntt_forward_neon(u64* x, std::size_t n, const u64* w, const u64* ws,
                      u64 q) {
  const uint64x2_t vq = vdupq_n_u64(q), vq2 = vdupq_n_u64(2 * q);
  std::size_t m = 1;
  for (std::size_t t = n / 2; t >= 2; m <<= 1, t >>= 1)
    for (std::size_t i = 0; i < m; ++i) {
      const uint64x2_t vw = vdupq_n_u64(w[m + i]), vws = vdupq_n_u64(ws[m + i]);
      for (u64* p = x + 2 * i * t; p < x + (2 * i + 1) * t; p += 2) {
        const uint64x2_t u = nn_csub_u64(vld1q_u64(p), vq2);
        const uint64x2_t v = nn_shoup(vld1q_u64(p + t), vw, vws, vq);
        vst1q_u64(p, vaddq_u64(u, v));
        vst1q_u64(p + t, vaddq_u64(vsubq_u64(u, v), vq2));
      }
    }
  ntt_forward_from(x, n, m, w, ws, q);
}

void scalar_mul_shoup_neon(u64* x, std::size_t len, u64 w, u64 wshoup, u64 q) {
  const uint64x2_t vq = vdupq_n_u64(q);
  const uint64x2_t vw = vdupq_n_u64(w);
  const uint64x2_t vws = vdupq_n_u64(wshoup);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2)
    vst1q_u64(x + i, nn_csub_u64(nn_shoup(vld1q_u64(x + i), vw, vws, vq), vq));
  if (i < len) scalar_mul_shoup_scalar(x + i, len - i, w, wshoup, q);
}

void ntt_inverse_neon(u64* x, std::size_t n, const u64* w, const u64* ws,
                      u64 n_inv, u64 n_inv_shoup, u64 q) {
  const uint64x2_t vq = vdupq_n_u64(q), vq2 = vdupq_n_u64(2 * q);
  gs_stages(x, n, 2, w, ws, q);
  for (std::size_t t = 2, h = n / 4; t < n; t <<= 1, h >>= 1)
    for (std::size_t i = 0; i < h; ++i) {
      const uint64x2_t vw = vdupq_n_u64(w[h + i]), vws = vdupq_n_u64(ws[h + i]);
      for (u64* p = x + 2 * i * t; p < x + (2 * i + 1) * t; p += 2) {
        const uint64x2_t u = vld1q_u64(p), v = vld1q_u64(p + t);
        vst1q_u64(p, nn_csub_u64(vaddq_u64(u, v), vq2));
        vst1q_u64(p + t, nn_shoup(vaddq_u64(vsubq_u64(u, v), vq2), vw, vws, vq));
      }
    }
  scalar_mul_shoup_neon(x, n, n_inv, n_inv_shoup, q);
}

inline uint64x2_t nn_barrett_mul(uint64x2_t a, uint64x2_t b, uint64x2_t vq,
                                 uint64x2_t vmu, unsigned k) noexcept {
  const int64x2_t sh_lo = vdupq_n_s64(-static_cast<int64_t>(k - 1));
  const int64x2_t sh_lo_c = vdupq_n_s64(static_cast<int64_t>(65 - k));
  const int64x2_t sh_hi = vdupq_n_s64(-static_cast<int64_t>(k + 1));
  const int64x2_t sh_hi_c = vdupq_n_s64(static_cast<int64_t>(63 - k));
  const uint64x2_t xlo = nn_mullo_epu64(a, b);
  const uint64x2_t xhi = nn_mulhi_epu64(a, b);
  const uint64x2_t q1 =
      vorrq_u64(vshlq_u64(xlo, sh_lo), vshlq_u64(xhi, sh_lo_c));
  const uint64x2_t q2lo = nn_mullo_epu64(q1, vmu);
  const uint64x2_t q2hi = nn_mulhi_epu64(q1, vmu);
  const uint64x2_t q3 =
      vorrq_u64(vshlq_u64(q2lo, sh_hi), vshlq_u64(q2hi, sh_hi_c));
  uint64x2_t r = vsubq_u64(xlo, nn_mullo_epu64(q3, vq));
  r = nn_csub_u64(r, vq);
  return nn_csub_u64(r, vq);
}

void pointwise_mul_neon(u64* dst, const u64* a, const u64* b, std::size_t len,
                        u64 q, u64 mu, unsigned k) {
  const uint64x2_t vq = vdupq_n_u64(q);
  const uint64x2_t vmu = vdupq_n_u64(mu);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2)
    vst1q_u64(dst + i,
              nn_barrett_mul(vld1q_u64(a + i), vld1q_u64(b + i), vq, vmu, k));
  if (i < len) pointwise_mul_scalar(dst + i, a + i, b + i, len - i, q, mu, k);
}

void pointwise_mul_acc_neon(u64* dst, const u64* a, const u64* b,
                            std::size_t len, u64 q, u64 mu, unsigned k) {
  const uint64x2_t vq = vdupq_n_u64(q);
  const uint64x2_t vmu = vdupq_n_u64(mu);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2) {
    const uint64x2_t p =
        nn_barrett_mul(vld1q_u64(a + i), vld1q_u64(b + i), vq, vmu, k);
    vst1q_u64(dst + i, nn_csub_u64(vaddq_u64(vld1q_u64(dst + i), p), vq));
  }
  if (i < len) pointwise_mul_acc_scalar(dst + i, a + i, b + i, len - i, q, mu, k);
}

constexpr KernelTable kNeonTable = {
    ntt_forward_neon,      ntt_inverse_neon,      pointwise_mul_neon,
    pointwise_mul_acc_neon, scalar_mul_shoup_neon,
};

#endif  // COFHEE_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

// -1 == no forced lane.
std::atomic<int> g_forced{-1};

const KernelTable& table_of(Isa isa) noexcept {
  switch (isa) {
#if COFHEE_SIMD_AVX2
    case Isa::kAvx2:
      return kAvx2Table;
    case Isa::kAvx512:
      return kAvx512Table;
#endif
#if COFHEE_SIMD_NEON
    case Isa::kNeon:
      return kNeonTable;
#endif
    default:
      return kScalarTable;
  }
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
    default:
      return "scalar";
  }
}

bool available(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if COFHEE_SIMD_AVX2
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Isa::kAvx512:
#if COFHEE_SIMD_AVX2
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
    case Isa::kNeon:
      return COFHEE_SIMD_NEON != 0;
  }
  return false;
}

Isa active_isa() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  static const Isa detected = [] {
    for (Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon})
      if (available(isa)) return isa;
    return Isa::kScalar;
  }();
  return detected;
}

bool force_isa(Isa isa) noexcept {
  if (!available(isa)) return false;
  g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

void clear_forced_isa() noexcept { g_forced.store(-1, std::memory_order_relaxed); }

const KernelTable& kernels() noexcept { return table_of(active_isa()); }

const KernelTable& kernels_for(Isa isa) {
  if (!available(isa))
    throw std::invalid_argument(std::string("simd lane unavailable: ") +
                                isa_name(isa));
  return table_of(isa);
}

}  // namespace cofhee::nt::simd
