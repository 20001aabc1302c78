// Processing Element (paper Section III-E).
//
// One pipelined 128-bit Barrett modular multiplier plus modular adder and
// subtractor, muxed into four modes: modular multiply, modular add, modular
// subtract, and the radix-2 butterfly (multiply feeding add+sub).  Multiply
// has a 5-cycle latency with II = 1; add/sub are single-cycle.  The PE is
// purely functional here -- cycle accounting lives in the MDMC, which knows
// the memory schedule -- but it owns the Barrett reducer programmed from
// the Q/BARRETTCTL registers.  Its operations are the MDMC's generic
// 128-bit path; the MDMC runs word-sized rings on 64-bit kernels instead
// (chip/mdmc.hpp).
#pragma once

#include <cstdint>

#include "chip/config.hpp"
#include "nt/barrett.hpp"

namespace cofhee::chip {

using u128 = unsigned __int128;

enum class PeMode : std::uint8_t {
  kModMul = 0,
  kModAdd = 1,
  kModSub = 2,
  kButterfly = 3,
};

class Pe {
 public:
  explicit Pe(const ChipConfig& cfg) : cfg_(cfg) {}

  /// Program the multiplier's modulus (host writes Q + BARRETTCTL*).
  void set_modulus(u128 q) { red_ = nt::Barrett128(q); }
  [[nodiscard]] u128 modulus() const noexcept { return red_.modulus(); }
  [[nodiscard]] const nt::Barrett128& ring() const noexcept { return red_; }

  [[nodiscard]] u128 mod_mul(u128 a, u128 b) const { return red_.mul(a, b); }
  [[nodiscard]] u128 mod_add(u128 a, u128 b) const { return red_.add(a, b); }
  [[nodiscard]] u128 mod_sub(u128 a, u128 b) const { return red_.sub(a, b); }
  /// Plain (non-modular) multiply, low 128 bits -- the PMUL command.
  [[nodiscard]] u128 mul_plain(u128 a, u128 b) const { return a * b; }

  /// Radix-2 Cooley-Tukey butterfly: (u + w*v, u - w*v).
  struct BflyOut {
    u128 lo, hi;
  };
  [[nodiscard]] BflyOut butterfly_ct(u128 u, u128 v, u128 w) const {
    const u128 m = mod_mul(v, w);
    return {mod_add(u, m), mod_sub(u, m)};
  }
  /// Radix-2 Gentleman-Sande butterfly: (u + v, (u - v)*w).
  [[nodiscard]] BflyOut butterfly_gs(u128 u, u128 v, u128 w) const {
    return {mod_add(u, v), mod_mul(mod_sub(u, v), w)};
  }

  /// Latency (cycles) until the first result of an operation emerges; all
  /// modes sustain II = 1 afterwards (Section III-E).
  [[nodiscard]] unsigned latency(PeMode m) const noexcept {
    switch (m) {
      case PeMode::kModAdd:
      case PeMode::kModSub:
        return cfg_.addsub_latency;
      case PeMode::kModMul:
        return cfg_.mult_latency;
      case PeMode::kButterfly:
        return cfg_.mult_latency + cfg_.addsub_latency;
    }
    return cfg_.mult_latency;
  }

 private:
  ChipConfig cfg_;
  nt::Barrett128 red_{u128{3}};
};

}  // namespace cofhee::chip
