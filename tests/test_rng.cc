/** @file Unit tests for the deterministic PRNG. */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"

namespace rnuma
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            same++;
    EXPECT_LT(same, 5);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowMatchesModulo)
{
    // A power-of-two bound masks instead of dividing; every bound
    // must still give exactly next() % bound.
    const std::uint64_t bounds[] = {1,
                                    2,
                                    3,
                                    100,
                                    128,
                                    std::uint64_t{1} << 32,
                                    std::uint64_t{1} << 63,
                                    ~std::uint64_t{0}};
    for (std::uint64_t b : bounds) {
        Rng r(23);
        Rng twin(23);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(r.below(b), twin.next() % b) << "bound " << b;
    }
}

TEST(Rng, BelowZeroIsAnError)
{
    Rng r(29);
    EXPECT_THROW(r.below(0), std::logic_error);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.range(3, 5));
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_TRUE(seen.count(3));
    EXPECT_TRUE(seen.count(5));
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    // Mean should be near 0.5.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng r(17);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<int> orig = v;
    r.shuffle(v);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(orig.begin(), orig.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, ShuffleEmptyAndSingleton)
{
    Rng r(19);
    std::vector<int> empty;
    r.shuffle(empty);
    EXPECT_TRUE(empty.empty());
    std::vector<int> one{42};
    r.shuffle(one);
    EXPECT_EQ(one[0], 42);
}

} // namespace rnuma
