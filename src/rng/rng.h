// Deterministic pseudo-random number generation, built from scratch.
//
// Every stochastic element of the reproduction — Poisson arrival processes,
// exponential/uniform/Pareto timer-interval distributions (Section 3.2), packet loss
// in the network substrate — draws from this generator so that a seed fully
// determines a run. The generator is xoshiro256** (public-domain algorithm by
// Blackman & Vigna), seeded through SplitMix64 as its authors recommend; we implement
// both here rather than depending on <random>'s unspecified-across-platforms engines.

#ifndef TWHEEL_SRC_RNG_RNG_H_
#define TWHEEL_SRC_RNG_RNG_H_

#include <cstdint>

namespace twheel::rng {

// SplitMix64: used to expand a 64-bit seed into xoshiro's 256-bit state, and handy as
// a cheap standalone mixer (e.g. hashing slot indices in tests).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Skips one output without computing it: the k-th output is a pure
  // function of seed + k * kGamma.
  constexpr void Discard() { state_ += kGamma; }

 private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state_;
};

// xoshiro256**: fast, high-quality, 2^256-1 period. Not cryptographic; not needed.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) {
      s = sm.Next();
    }
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): 53 random mantissa bits.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t NextBounded(std::uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    // Rejection sampling on the high bits of a 128-bit product.
    while (true) {
      std::uint64_t x = Next();
      __uint128_t m = static_cast<__uint128_t>(x) * bound;
      std::uint64_t low = static_cast<std::uint64_t>(m);
      if (low >= bound || low >= (0 - bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  // Bernoulli trial with success probability p.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace twheel::rng

#endif  // TWHEEL_SRC_RNG_RNG_H_
