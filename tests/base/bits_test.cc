// Unit tests for power-of-two helpers (the Scheme 5/6 AND-instruction hash relies on
// these invariants).

#include <gtest/gtest.h>

#include "src/base/bits.h"
#include "src/rng/rng.h"

namespace twheel {
namespace {

TEST(BitsTest, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(4));
  EXPECT_FALSE(IsPowerOfTwo(6));
  EXPECT_TRUE(IsPowerOfTwo(1ULL << 63));
  EXPECT_FALSE(IsPowerOfTwo((1ULL << 63) + 1));
}

TEST(BitsTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(5), 8u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

TEST(BitsTest, Log2Floor) {
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(2), 1u);
  EXPECT_EQ(Log2Floor(3), 1u);
  EXPECT_EQ(Log2Floor(4), 2u);
  EXPECT_EQ(Log2Floor(255), 7u);
  EXPECT_EQ(Log2Floor(256), 8u);
  EXPECT_EQ(Log2Floor(~0ULL), 63u);
}

TEST(BitsTest, MaskConsistency) {
  // The hashed wheels compute slot = value & (size - 1); check against modulo for a
  // spread of sizes and values.
  for (std::uint32_t k = 1; k <= 16; ++k) {
    std::uint64_t size = 1ULL << k;
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, size - 1, size, size + 1,
          std::uint64_t{12345678}}) {
      EXPECT_EQ(v & (size - 1), v % size) << "size=" << size << " v=" << v;
    }
  }
}

TEST(BitsTest, ConstexprUsable) {
  static_assert(IsPowerOfTwo(64));
  static_assert(NextPowerOfTwo(33) == 64);
  static_assert(Log2Floor(64) == 6);
  SUCCEED();
}

TEST(BitsTest, FastModulusMatchesTheDivideInstruction) {
  const std::uint64_t divisors[] = {1,          2,          3,
                                    7,          60,         64,
                                    100,        4095,       65536,
                                    (1ULL << 32) - 1,       (1ULL << 32) + 1,
                                    1ULL << 63, (1ULL << 63) + 1, ~0ULL};
  rng::Xoshiro256 gen(0xfa57);
  for (std::uint64_t d : divisors) {
    const FastModulus mod(d);
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    const std::uint64_t edges[] = {0,        1,           d - 1,           d,
                                   d + 1,    2 * d - 1,   kMax,            kMax - 1,
                                   kMax - d, kMax / d * d, kMax / d * d - 1};
    for (std::uint64_t n : edges) {
      EXPECT_EQ(mod(n), n % d) << n << " mod " << d;
    }
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t n = gen.Next() >> gen.NextBounded(64);
      ASSERT_EQ(mod(n), n % d) << n << " mod " << d;
    }
  }
}

}  // namespace
}  // namespace twheel
