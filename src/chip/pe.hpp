// Processing Element (paper Section III-E).
//
// One pipelined 128-bit Barrett modular multiplier plus modular adder and
// subtractor, muxed into four modes: modular multiply, modular add, modular
// subtract, and the radix-2 butterfly (multiply feeding add+sub).  Multiply
// has a 5-cycle latency with II = 1; add/sub are single-cycle.  The PE is
// purely functional here -- cycle accounting lives in the MDMC, which knows
// the memory schedule -- but it owns the Barrett reducer programmed from
// the Q/BARRETTCTL registers (nt::Barrett128, two-limb native arithmetic
// for every modulus up to 128 bits).  Its modular ops are the MDMC's
// generic 128-bit pointwise path; NTT/iNTT run poly::MergedNtt128 over
// ring() (or poly::MergedNtt64 for word-sized rings, chip/mdmc.hpp).
#pragma once

#include "nt/barrett.hpp"

namespace cofhee::chip {

using u128 = unsigned __int128;

class Pe {
 public:
  /// Program the multiplier's modulus (host writes Q + BARRETTCTL*).
  void set_modulus(u128 q) { red_ = nt::Barrett128(q); }
  [[nodiscard]] u128 modulus() const noexcept { return red_.modulus(); }
  [[nodiscard]] const nt::Barrett128& ring() const noexcept { return red_; }

  [[nodiscard]] u128 mod_mul(u128 a, u128 b) const { return red_.mul(a, b); }
  [[nodiscard]] u128 mod_add(u128 a, u128 b) const { return red_.add(a, b); }
  [[nodiscard]] u128 mod_sub(u128 a, u128 b) const { return red_.sub(a, b); }
  /// Plain (non-modular) multiply, low 128 bits -- the PMUL command.
  [[nodiscard]] u128 mul_plain(u128 a, u128 b) const { return a * b; }

 private:
  nt::Barrett128 red_{u128{3}};
};

}  // namespace cofhee::chip
