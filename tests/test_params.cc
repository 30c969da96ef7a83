/**
 * @file
 * Tests for the system parameters: the composed latencies must equal
 * the paper's Table 2 values, and the page-operation cost must span
 * the quoted 3000-11500 cycle range.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/params.hh"

namespace rnuma
{

TEST(Params, Table2LocalFillIs69Cycles)
{
    EXPECT_EQ(Params::base().localFill(), 69u);
}

TEST(Params, Table2RemoteFetchIs376Cycles)
{
    EXPECT_EQ(Params::base().remoteFetch(), 376u);
}

TEST(Params, Table2SramAndDram)
{
    Params p = Params::base();
    EXPECT_EQ(p.sramAccess, 8u);
    EXPECT_EQ(p.dramAccess, 56u);
}

TEST(Params, Table2SoftTrapAndShootdown)
{
    Params p = Params::base();
    EXPECT_EQ(p.softTrap, 2000u);     // 5 us at 400 MHz
    EXPECT_EQ(p.tlbShootdown, 200u);  // 0.5 us
}

TEST(Params, PageOpCostSpansTable2Range)
{
    Params p = Params::base();
    EXPECT_GE(p.pageOpCost(0), 3000u);
    EXPECT_LE(p.pageOpCost(0), 3500u);
    EXPECT_GE(p.pageOpCost(p.blocksPerPage()), 11000u);
    EXPECT_LE(p.pageOpCost(p.blocksPerPage()), 11500u);
}

TEST(Params, BaseGeometryMatchesPaper)
{
    Params p = Params::base();
    EXPECT_EQ(p.numNodes, 8u);
    EXPECT_EQ(p.cpusPerNode, 4u);
    EXPECT_EQ(p.numCpus(), 32u);
    EXPECT_EQ(p.l1Size, 8u * 1024u);
    EXPECT_EQ(p.blockCacheSize, 32u * 1024u);
    EXPECT_EQ(p.rnumaBlockCacheSize, 128u);
    EXPECT_EQ(p.pageCacheSize, 320u * 1024u);
    EXPECT_EQ(p.pageCacheFrames(), 80u);
    EXPECT_EQ(p.relocationThreshold, 64u);
    EXPECT_EQ(p.blocksPerPage(), 128u);
}

TEST(Params, SoftSystemTriplesPageOverheads)
{
    Params base = Params::base();
    Params soft = Params::soft();
    EXPECT_EQ(soft.softTrap, 4000u);     // 10 us
    EXPECT_EQ(soft.tlbShootdown, 2000u); // 5 us via IPIs
    // "The per-page allocation/replacement and relocation overheads
    // are therefore approximately 3 times higher" (Section 5.5).
    double ratio = static_cast<double>(soft.pageOpCost(0)) /
        static_cast<double>(base.pageOpCost(0));
    EXPECT_NEAR(ratio, 3.0, 0.8);
}

TEST(Params, ValidateRejectsBadBlockSize)
{
    Params p = Params::base();
    p.blockSize = 48; // not a power of two
    EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(Params, ValidateRejectsNonPowerOfTwoPageSize)
{
    // 6144 is a multiple of the 32-byte block, so only the
    // power-of-two rule (pages are shifts on the reference path)
    // rejects it.
    Params p = Params::base();
    p.pageSize = 6144;
    p.pageCacheSize = 10 * p.pageSize;
    EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(Params, ValidateBoundsPageSizeAtFourMiB)
{
    // maxPages pages of the largest page span a Ref's 44-bit address.
    Params p = Params::base();
    p.pageSize = maxPageSize;
    p.pageCacheSize = 2 * p.pageSize;
    p.validate();
    p.pageSize = 2 * maxPageSize;
    p.pageCacheSize = 2 * p.pageSize;
    EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(Params, ValidateRejectsMisalignedPageCache)
{
    Params p = Params::base();
    p.pageCacheSize = p.pageSize * 3 + 1;
    EXPECT_THROW(p.validate(), std::logic_error);
}

namespace
{

/** validate() throws, naming @p field and @p value in its message. */
void
expectRejected(const Params &p, const std::string &field,
               std::size_t value)
{
    try {
        p.validate();
        ADD_FAILURE() << field << " = " << value << " was accepted";
    } catch (const std::logic_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(field), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(value)), std::string::npos)
            << msg;
    }
}

} // namespace

TEST(Params, ValidateRejectsAnEmptyRemoteCache)
{
    // Cache cannot hold zero sets, so neither size may be 0.
    Params p = Params::base();
    p.blockCacheSize = 0;
    expectRejected(p, "blockCacheSize", 0);
    p = Params::base();
    p.rnumaBlockCacheSize = 0;
    expectRejected(p, "rnumaBlockCacheSize", 0);
}

TEST(Params, ValidateRejectsANonPowerOfTwoCache)
{
    // Every cache is direct-mapped with its set index a mask, so each
    // size must be a power-of-two number of blocks: block aligned is
    // not enough.
    Params p = Params::base();
    p.l1Size = 24 * 1024;
    expectRejected(p, "l1Size", 24 * 1024);
    p.l1Size = 8 * 1024 + 64;
    expectRejected(p, "l1Size", 8 * 1024 + 64);
    p = Params::base();
    p.blockCacheSize = 48 * 1024;
    expectRejected(p, "blockCacheSize", 48 * 1024);
    p.blockCacheSize = 32 * 1024 + 32;
    expectRejected(p, "blockCacheSize", 32 * 1024 + 32);
    p = Params::base();
    p.rnumaBlockCacheSize = 96;
    expectRejected(p, "rnumaBlockCacheSize", 96);
    p.rnumaBlockCacheSize = 100; // not a multiple of the 32-byte block
    expectRejected(p, "rnumaBlockCacheSize", 100);
    // One block is the smallest cache.
    p.rnumaBlockCacheSize = 32;
    p.validate();
}

TEST(Params, ValidateRejectsZeroThreshold)
{
    Params p = Params::base();
    p.relocationThreshold = 0;
    EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(Params, ValidateRejectsTooManyNodes)
{
    Params p = Params::base();
    p.numNodes = maxNodes + 1;
    EXPECT_THROW(p.validate(), std::logic_error);
}

} // namespace rnuma
