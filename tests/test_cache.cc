/** @file Unit tests for the direct-mapped MOSI cache. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mem/cache.hh"

namespace rnuma
{

TEST(CacheState, DirtyAndValidPredicates)
{
    EXPECT_TRUE(isDirty(CacheState::Modified));
    EXPECT_TRUE(isDirty(CacheState::Owned));
    EXPECT_FALSE(isDirty(CacheState::Shared));
    EXPECT_FALSE(isDirty(CacheState::Invalid));
    EXPECT_TRUE(isValid(CacheState::Shared));
    EXPECT_FALSE(isValid(CacheState::Invalid));
}

TEST(Cache, MissOnEmpty)
{
    Cache c(1024, 32);
    EXPECT_EQ(c.find(0x100), nullptr);
    EXPECT_EQ(c.validCount(), 0u);
}

TEST(Cache, AllocateThenFind)
{
    Cache c(1024, 32);
    Cache::Victim v;
    CacheLine *line = c.allocate(0x100, v);
    ASSERT_NE(line, nullptr);
    EXPECT_FALSE(v.valid);
    line->state = CacheState::Shared;
    CacheLine *found = c.find(0x100);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, line);
}

TEST(Cache, BlockAlignmentOnProbe)
{
    Cache c(1024, 32);
    Cache::Victim v;
    c.allocate(0x100, v)->state = CacheState::Shared;
    // Any address within the block finds the line.
    EXPECT_NE(c.find(0x100 + 31), nullptr);
    EXPECT_EQ(c.find(0x100 + 32), nullptr);
}

TEST(Cache, DirectMappedConflictEvicts)
{
    // 1 KB direct-mapped, 32 B blocks: 32 sets. Addresses 0 and 1024
    // map to the same set.
    Cache c(1024, 32);
    Cache::Victim v;
    c.allocate(0, v)->state = CacheState::Modified;
    c.allocate(1024, v)->state = CacheState::Shared;
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0u);
    EXPECT_EQ(v.state, CacheState::Modified);
    EXPECT_EQ(c.find(0), nullptr);
    EXPECT_NE(c.find(1024), nullptr);
}

TEST(Cache, InvalidateReturnsPriorState)
{
    Cache c(1024, 32);
    Cache::Victim v;
    c.allocate(0x40, v)->state = CacheState::Owned;
    EXPECT_EQ(c.invalidate(0x40), CacheState::Owned);
    EXPECT_EQ(c.invalidate(0x40), CacheState::Invalid);
    EXPECT_EQ(c.find(0x40), nullptr);
}

TEST(Cache, InfiniteModeNeverEvicts)
{
    Cache c(4096, 32, /*infinite=*/true);
    Cache::Victim v;
    for (Addr a = 0; a < 32 * 10000; a += 32) {
        c.allocate(a, v)->state = CacheState::Shared;
        ASSERT_FALSE(v.valid);
    }
    EXPECT_EQ(c.validCount(), 10000u);
    EXPECT_NE(c.find(32 * 1234), nullptr);
}

TEST(Cache, InfiniteModeInvalidateErases)
{
    Cache c(4096, 32, true);
    Cache::Victim v;
    c.allocate(64, v)->state = CacheState::Modified;
    EXPECT_EQ(c.invalidate(64), CacheState::Modified);
    EXPECT_EQ(c.find(64), nullptr);
    EXPECT_EQ(c.validCount(), 0u);
}

TEST(Cache, DoubleAllocatePanics)
{
    Cache c(1024, 32);
    Cache::Victim v;
    c.allocate(0, v)->state = CacheState::Shared;
    EXPECT_THROW(c.allocate(0, v), std::logic_error);
}

TEST(Cache, ForEachValidVisitsAll)
{
    Cache c(1024, 32);
    Cache::Victim v;
    for (Addr a = 0; a < 5 * 32; a += 32)
        c.allocate(a, v)->state = CacheState::Shared;
    std::size_t n = 0;
    c.forEachValid([&](const CacheLine &) { ++n; });
    EXPECT_EQ(n, 5u);
}

TEST(CacheBanks, OneSetInTwoBanksHoldsTwoBlocks)
{
    // 1 KB direct-mapped banks: 0 and 1024 share a set, but each
    // bank is its own cache, so neither fill evicts the other.
    Cache c(1024, 32, false, 2);
    Cache::Victim v;
    c.allocate(0, v, 0)->state = CacheState::Modified;
    c.allocate(1024, v, 1)->state = CacheState::Shared;
    EXPECT_FALSE(v.valid);
    EXPECT_NE(c.find(0, 0), nullptr);
    EXPECT_NE(c.find(1024, 1), nullptr);
    EXPECT_EQ(c.find(0, 1), nullptr);
    EXPECT_EQ(c.find(1024, 0), nullptr);
    // The same block may live in both banks, and one set's lines sit
    // side by side: bank 0's line, then bank 1's.
    c.allocate(0, v, 1)->state = CacheState::Shared;
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 1024u);
    CacheLine *set = c.setLines(0);
    EXPECT_EQ(c.setLines(1024 + 31), set);
    EXPECT_EQ(&set[0], c.find(0, 0));
    EXPECT_EQ(&set[1], c.find(0, 1));
    EXPECT_EQ(set[0].state, CacheState::Modified);
    EXPECT_EQ(set[1].state, CacheState::Shared);
    EXPECT_EQ(c.validCount(), 2u);
}

TEST(Cache, InfiniteModeCapIsCountedInPages)
{
    // The lines are kept a page at a time, so the cap is the one every
    // page-level table has. A 4 KiB page holds 128 blocks, two
    // 64-block runs: a page past maxPages / 2 must still be accepted.
    Cache c(4096, 32, true);
    Cache::Victim v;
    const Addr page = maxPages / 2 + 1;
    c.allocate(page * 4096 + 96, v)->state = CacheState::Shared;
    EXPECT_NE(c.find(page * 4096 + 96), nullptr);
    EXPECT_EQ(c.find(page * 4096 + 64), nullptr);
    EXPECT_EQ(c.validCount(), 1u);
    // Past the cap: a named fatal error that counts pages.
    try {
        c.allocate(Addr(maxPages) * 4096, v);
        ADD_FAILURE() << "allocate past maxPages was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "page " + std::to_string(maxPages) + " is past"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Cache, InfiniteModeNeedsAPageOfBlocks)
{
    EXPECT_THROW(Cache(16, 32, true), std::logic_error);
    EXPECT_THROW(Cache(96, 32, true), std::logic_error);
}

TEST(Cache, SizeMustBeAPowerOfTwoMultipleOfTheBlock)
{
    // Direct-mapped sets are indexed with a mask, so a size that is
    // not a power-of-two number of blocks has no set layout.
    EXPECT_THROW(Cache(24 * 1024, 32), std::logic_error);
    EXPECT_THROW(Cache(96, 32), std::logic_error);
    EXPECT_THROW(Cache(16, 32), std::logic_error);
}

TEST(CacheBanks, InfiniteCacheHasOneBank)
{
    EXPECT_THROW(Cache(4096, 32, true, 2), std::logic_error);
}

/** Parameterized sweep: geometry invariants across configurations. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometry, FillToCapacityWithoutPhantomEvictions)
{
    auto [size_kb, block] = GetParam();
    std::size_t size = static_cast<std::size_t>(size_kb) * 1024;
    Cache c(size, static_cast<std::size_t>(block));
    std::size_t capacity = size / static_cast<std::size_t>(block);
    Cache::Victim v;
    // Sequential fill exactly to capacity must not evict anything.
    for (std::size_t i = 0; i < capacity; ++i) {
        c.allocate(static_cast<Addr>(i) * block, v)->state =
            CacheState::Shared;
        ASSERT_FALSE(v.valid) << "eviction at line " << i;
    }
    EXPECT_EQ(c.validCount(), capacity);
    // One more forces exactly one eviction.
    c.allocate(static_cast<Addr>(capacity) * block, v)->state =
        CacheState::Shared;
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(c.validCount(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(1, 32), std::make_tuple(8, 32),
                      std::make_tuple(8, 64), std::make_tuple(32, 32),
                      std::make_tuple(4, 32), std::make_tuple(16, 128)));

} // namespace rnuma
