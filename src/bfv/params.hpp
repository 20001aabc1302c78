// BFV parameter sets (paper Sections II-B/II-C/VI-B).
//
// The ciphertext modulus q is an RNS product of NTT-friendly 64-bit towers
// (what SEAL runs on a CPU); CoFHEE's native 128-bit datapath instead needs
// one tower per <= 128 coefficient bits.  The two presets mirror the Fig. 6
// configurations: (n, log q) = (2^12, 109) split 54+55, and (2^13, 218)
// split 54+54+55+55, both at the 128-bit classical security level the paper
// cites.  An auxiliary basis B (|Q|+1 towers) extends Q for the tensor step
// of EvalMult so products up to n*q^2 are represented exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/exec_policy.hpp"
#include "nt/primes.hpp"
#include "poly/merged_ntt.hpp"
#include "poly/rns.hpp"

namespace cofhee::bfv {

using nt::u128;
using nt::u64;
using poly::BigInt;

struct BfvParams {
  std::size_t n = 0;
  std::vector<u64> q_moduli;   // ciphertext towers (RNS base Q)
  std::vector<u64> aux_moduli; // extension base B for the tensor
  u64 t = 0;                   // plaintext modulus
  unsigned cbd_eta = 21;       // error distribution (Gaussian stand-in)

  /// Build a parameter set: `tower_bits[i]` sizes each Q tower; aux towers
  /// are chosen automatically (|Q|+1 towers of 55 bits, distinct from Q).
  static BfvParams create(std::size_t n, const std::vector<unsigned>& tower_bits,
                          u64 t);

  /// Fig. 6 small configuration: n = 2^12, log q = 109 (54+55), t = 65537.
  static BfvParams paper_small();
  /// Fig. 6 large configuration: n = 2^13, log q = 218 (54+54+55+55).
  static BfvParams paper_large();
  /// Tiny parameters for fast functional tests.
  static BfvParams test_tiny(std::size_t n = 64);

  [[nodiscard]] unsigned log_q() const;
};

/// Word-sized tables of BFV's host RNS phases (bfv.cpp), read off the
/// mixed-radix digits of each coefficient: the centered base extension
/// Q -> Q u B, the t/Q rounding back to Q, decryption and the relin digits.
struct HostRnsTables {
  std::vector<poly::RadixProjection> q_to_aux;  // x mod p_a from Q digits
  std::vector<u64> q_mod_aux;                   // Q mod p_a
  std::vector<poly::RadixProjection> b_to_q;    // y_B mod q_i from ext digits |Q|..
  std::vector<u64> b_mod_q;                     // B mod q_i
  std::vector<nt::ShoupMul> t_mod_q;            // x -> t x mod q_i
  std::vector<nt::ShoupMul> one_mod_q;          // x -> x mod q_i for any u64 x
  poly::ScaledRound round_t_q;                  // round(t x / Q) from Q digits
};

/// Precomputed context shared by keygen/encrypt/decrypt/evaluate.  Carries
/// the execution policy every per-tower / per-coefficient hot loop drains
/// through: serial by default (the bit-exact reference path), pooled when a
/// caller opts in.  Switching policies never changes results -- only which
/// threads compute them (tests/bfv/test_parallel_vs_serial_bfv.cpp).
class BfvContext {
 public:
  explicit BfvContext(BfvParams params,
                      backend::ExecPolicy policy = backend::ExecPolicy::serial());

  [[nodiscard]] const BfvParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t n() const noexcept { return params_.n; }
  [[nodiscard]] u64 t() const noexcept { return params_.t; }
  [[nodiscard]] const poly::RnsBasis& q_basis() const noexcept { return q_basis_; }
  [[nodiscard]] const poly::RnsBasis& ext_basis() const noexcept { return ext_basis_; }
  [[nodiscard]] const BigInt& big_q() const noexcept { return q_basis_.product(); }
  /// Delta = floor(Q / t).
  [[nodiscard]] const BigInt& delta() const noexcept { return delta_; }
  [[nodiscard]] u64 delta_mod(std::size_t tower) const { return delta_mod_q_.at(tower); }
  [[nodiscard]] const HostRnsTables& host_rns() const noexcept { return rns_; }

  // Tower engines are the fused/SIMD MergedNtt64 path (lazy-reduction
  // butterflies, Shoup twiddles, nt::simd dispatch).
  [[nodiscard]] const poly::MergedNtt64& ntt(std::size_t tower) const {
    return q_ntt_.at(tower);
  }
  [[nodiscard]] const poly::MergedNtt64& ext_ntt(std::size_t tower) const {
    return ext_ntt_.at(tower);
  }

  /// Negacyclic product of two coefficient-domain polynomials in tower i.
  [[nodiscard]] poly::Coeffs<u64> mul_tower(std::size_t i, const poly::Coeffs<u64>& a,
                                            const poly::Coeffs<u64>& b) const {
    return q_ntt_.at(i).negacyclic_mul(a, b);
  }

  /// Executor the evaluation loops run on (serial or pooled).
  [[nodiscard]] const backend::Executor& exec() const noexcept { return exec_; }
  /// Swap the serial reference path and the pooled path at runtime.  Not
  /// safe concurrently with an evaluation on this context.
  void set_exec_policy(backend::ExecPolicy policy) {
    exec_ = backend::Executor(policy);
  }

  // RNS-polynomial helpers over the Q basis.
  [[nodiscard]] poly::RnsPoly add(const poly::RnsPoly& a, const poly::RnsPoly& b) const;
  [[nodiscard]] poly::RnsPoly sub(const poly::RnsPoly& a, const poly::RnsPoly& b) const;
  [[nodiscard]] poly::RnsPoly mul(const poly::RnsPoly& a, const poly::RnsPoly& b) const;
  [[nodiscard]] poly::RnsPoly neg(const poly::RnsPoly& a) const;
  [[nodiscard]] poly::RnsPoly zero() const;

 private:
  BfvParams params_;
  poly::RnsBasis q_basis_;
  poly::RnsBasis ext_basis_;  // Q followed by B
  std::vector<poly::MergedNtt64> q_ntt_;
  std::vector<poly::MergedNtt64> ext_ntt_;
  BigInt delta_{};
  std::vector<u64> delta_mod_q_;
  HostRnsTables rns_;
  backend::Executor exec_;
};

}  // namespace cofhee::bfv
