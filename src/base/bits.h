// Power-of-two arithmetic helpers, and a remainder for the sizes that are not.
//
// The paper recommends power-of-two wheel sizes so the hash "Timer Value mod
// TableSize" is a single AND instruction (Section 6.1.2): "Obtaining the remainder
// after dividing by a power of 2 is cheap (AND instruction), and consequently
// recommended."

#ifndef TWHEEL_SRC_BASE_BITS_H_
#define TWHEEL_SRC_BASE_BITS_H_

#include <bit>
#include <cstdint>

namespace twheel {

constexpr bool IsPowerOfTwo(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Smallest power of two >= v (v must be >= 1 and <= 2^63).
constexpr std::uint64_t NextPowerOfTwo(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// floor(log2(v)) for v >= 1.
constexpr std::uint32_t Log2Floor(std::uint64_t v) {
  std::uint32_t r = 0;
  while (v >>= 1) {
    ++r;
  }
  return r;
}

// Index of the lowest set bit; v must be non-zero. Single TZCNT/CTZ instruction —
// the engine of the occupancy-bitmap scans in base/bitmap.h.
constexpr std::uint32_t CountTrailingZeros(std::uint64_t v) {
  return static_cast<std::uint32_t>(std::countr_zero(v));
}

// Number of set bits. Single POPCNT instruction.
constexpr std::uint32_t PopCount(std::uint64_t v) {
  return static_cast<std::uint32_t>(std::popcount(v));
}

// n mod d for a divisor fixed at construction, without a divide instruction
// (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation", 2019).
// With c = ceil(2^128 / d), n mod d is the high half of ((c * n) mod 2^128) * d,
// exact for every 64-bit n and d >= 1 (their Theorem 1 with N = L = 64). It
// costs four multiplies where a 64-bit div costs tens of cycles — the Scheme 4
// wheels, whose size is any integer, take one per tick.
class FastModulus {
 public:
  explicit constexpr FastModulus(std::uint64_t divisor)
      : divisor_(divisor), c_(~Wide{0} / divisor + 1) {}

  constexpr std::uint64_t operator()(std::uint64_t n) const {
    const Wide low = c_ * n;  // (c * n) mod 2^128
    const Wide high_part = (low >> 64) * divisor_;
    const Wide low_part = (low & ~std::uint64_t{0}) * divisor_ >> 64;
    return static_cast<std::uint64_t>((high_part + low_part) >> 64);
  }

 private:
  using Wide = unsigned __int128;

  std::uint64_t divisor_;
  Wide c_;
};

}  // namespace twheel

#endif  // TWHEEL_SRC_BASE_BITS_H_
