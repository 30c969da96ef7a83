/** @file Unit tests for directory entries and storage. */

#include <gtest/gtest.h>

#include "proto/directory.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

DirConfig
cfgOf(SharerFormat fmt, std::size_t nodes)
{
    DirConfig c;
    c.format = fmt;
    c.nodes = nodes;
    return c;
}

} // namespace

TEST(Directory, PeekMissingIsNull)
{
    Directory d;
    EXPECT_EQ(d.peek(0x1000), nullptr);
    EXPECT_EQ(d.size(), 0u);
}

TEST(Directory, EntryCreatesAndPersists)
{
    Directory d;
    DirEntry &e = d.entry(0x1000);
    d.sharers(e).set(3);
    EXPECT_EQ(d.size(), 1u);
    const DirEntry *p = d.peek(0x1000);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(d.sharers(*p).test(3));
}

TEST(DirEntry, DefaultsAreClean)
{
    Directory d;
    const DirEntry &e = d.entry(0x40);
    EXPECT_FALSE(e.hasOwner());
    EXPECT_EQ(test::sharerCount(d.sharers(e)), 0u);
    EXPECT_TRUE(d.prior(e).none());
    EXPECT_TRUE(d.touched(e).none());
}

TEST(DirEntry, OwnerAndSharerCounts)
{
    Directory d;
    DirEntry &e = d.entry(0x40);
    e.owner = 2;
    d.sharers(e).set(2);
    d.sharers(e).set(5);
    EXPECT_TRUE(e.hasOwner());
    EXPECT_EQ(test::sharerCount(d.sharers(e)), 2u);
}

TEST(Directory, EntriesOfAPageAreIndependentAndStable)
{
    // A page's entries share one group: setting one entry's sets must
    // leave its neighbours' words alone, and a reference taken before
    // other entries are created stays valid (fetch holds one across
    // coherence callbacks).
    Directory d(32, 128, cfgOf(SharerFormat::FullMap, 128));
    DirEntry &first = d.entry(0);
    d.sharers(first).set(127);
    d.prior(first).set(64);
    d.touched(first).set(0);
    for (Addr b = 32; b < 128 * 32; b += 32) {
        DirEntry &e = d.entry(b);
        EXPECT_TRUE(d.sharers(e).none()) << b;
        EXPECT_TRUE(d.prior(e).none()) << b;
        EXPECT_TRUE(d.touched(e).none()) << b;
        EXPECT_FALSE(e.hasOwner()) << b;
        d.touched(e).set(static_cast<NodeId>(b / 32));
    }
    for (Addr b = 128 * 32; b < 64 * 128 * 32; b += 128 * 32)
        d.entry(b); // other pages: new groups
    EXPECT_EQ(&first, d.peek(0));
    EXPECT_TRUE(d.sharers(first).test(127));
    EXPECT_EQ(test::sharerCount(d.sharers(first)), 1u);
    EXPECT_TRUE(d.prior(first).test(64));
    EXPECT_TRUE(d.touched(first).test(0));
    EXPECT_EQ(test::sharerCount(d.touched(first)), 1u);
    EXPECT_EQ(d.size(), 128u + 63u);
}

TEST(Directory, HostFootprintIsProportionalToTheMachine)
{
    // Header, the three sets' words and the live bit: one word each
    // on 8 nodes, two per set on 128 (296 B on every machine size
    // when the sets were fixed 512-bit vectors).
    const std::size_t block = 32, page_blocks = 128;
    for (SharerFormat fmt :
         {SharerFormat::FullMap, SharerFormat::LimitedPointer,
          SharerFormat::CoarseVector}) {
        EXPECT_LE(Directory(block, page_blocks, cfgOf(fmt, 8))
                      .hostBytesPerEntry(),
                  48u)
            << int(fmt);
        EXPECT_LE(Directory(block, page_blocks, cfgOf(fmt, 128))
                      .hostBytesPerEntry(),
                  72u)
            << int(fmt);
    }
    EXPECT_EQ(Directory(block, page_blocks,
                        cfgOf(SharerFormat::FullMap, 8))
                  .hostBytesPerEntry(),
              33u);
    // Coarse regions narrow the sharer sets: 512 nodes in 8-node
    // regions are 64 region bits, one word instead of eight.
    EXPECT_LT(Directory(block, page_blocks,
                        cfgOf(SharerFormat::CoarseVector, 512))
                  .hostBytesPerEntry(),
              Directory(block, page_blocks,
                        cfgOf(SharerFormat::FullMap, 512))
                  .hostBytesPerEntry());
}

} // namespace rnuma
