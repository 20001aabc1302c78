#include "poly/merged_ntt.hpp"

#include "nt/simd.hpp"

namespace cofhee::poly {

MergedNtt64::MergedNtt64(const nt::Barrett64& red, std::vector<u64> rom, u64 n_inv)
    : red_(red), n_(rom.size()), n_inv_(n_inv),
      n_inv_shoup_(nt::shoup_constant(n_inv, red.modulus())) {
  tw_inv_ = detail::mirror_twiddles(red, rom);
  tw_ = std::move(rom);
  const auto shoup_all = [q = red.modulus()](const std::vector<u64>& w) {
    std::vector<u64> s(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) s[i] = nt::shoup_constant(w[i], q);
    return s;
  };
  tw_shoup_ = shoup_all(tw_);
  tw_inv_shoup_ = shoup_all(tw_inv_);
}

MergedNtt64::MergedNtt64(const nt::Barrett64& red, std::size_t n, u64 psi)
    : MergedNtt64(red, poly::twiddle_rom(red, n, psi), 0) {
  n_inv_ = red.inv(static_cast<u64>(n));
  n_inv_shoup_ = nt::shoup_constant(n_inv_, red.modulus());
}

void MergedNtt64::forward(Coeffs<u64>& x) const {
  check(x);
  nt::simd::kernels().ntt_forward(x.data(), n_, tw_.data(), tw_shoup_.data(),
                                  red_.modulus());
}

void MergedNtt64::inverse(Coeffs<u64>& x) const {
  check(x);
  nt::simd::kernels().ntt_inverse(x.data(), n_, tw_inv_.data(),
                                  tw_inv_shoup_.data(), n_inv_, n_inv_shoup_,
                                  red_.modulus());
}

Coeffs<u64> MergedNtt64::negacyclic_mul(const Coeffs<u64>& a,
                                        const Coeffs<u64>& b) const {
  check(a);
  check(b);
  const auto& K = nt::simd::kernels();
  Coeffs<u64> ap(a), bp(b);
  forward(ap);
  forward(bp);
  K.pointwise_mul(ap.data(), ap.data(), bp.data(), n_, red_.modulus(),
                  red_.mu(), red_.k());
  inverse(ap);
  return ap;
}

void MergedNtt64::tensor(const Coeffs<u64>& a0, const Coeffs<u64>& a1,
                         const Coeffs<u64>& b0, const Coeffs<u64>& b1,
                         Coeffs<u64>& y0, Coeffs<u64>& y1,
                         Coeffs<u64>& y2) const {
  check(a0);
  check(a1);
  check(b0);
  check(b1);
  const auto& K = nt::simd::kernels();
  const u64 q = red_.modulus();
  const u64 mu = red_.mu();
  const unsigned k = red_.k();
  Coeffs<u64> fa0(a0), fa1(a1), fb0(b0), fb1(b1);
  forward(fa0);
  forward(fa1);
  forward(fb0);
  forward(fb1);
  y0.resize(n_);
  y1.resize(n_);
  y2.resize(n_);
  K.pointwise_mul(y0.data(), fa0.data(), fb0.data(), n_, q, mu, k);
  K.pointwise_mul(y1.data(), fa0.data(), fb1.data(), n_, q, mu, k);
  K.pointwise_mul_acc(y1.data(), fa1.data(), fb0.data(), n_, q, mu, k);
  K.pointwise_mul(y2.data(), fa1.data(), fb1.data(), n_, q, mu, k);
  inverse(y0);
  inverse(y1);
  inverse(y2);
}

}  // namespace cofhee::poly
