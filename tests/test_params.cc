/**
 * @file
 * Tests for the system parameters: the composed latencies must equal
 * the paper's Table 2 values, and the page-operation cost must span
 * the quoted 3000-11500 cycle range.
 */

#include <gtest/gtest.h>

#include <stdexcept>

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

TEST(Params, ValidateRejectsMisalignedPageCache)
{
    Params p = Params::base();
    p.pageCacheSize = p.pageSize * 3 + 1;
    EXPECT_THROW(p.validate(), std::logic_error);
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
