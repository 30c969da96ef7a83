/** @file Machine-level tests of the S-COMA protocol. */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"

#include "test_util.hh"

namespace rnuma
{

TEST(MachineSComa, AllocatesOncePerRemotePageWhenTheyFit)
{
    Params p = test::smallParams(); // 4 page-cache frames
    auto wl = makeHotRemoteReuse(p, 3, 3);
    RunStats s = runProtocol(p, "scoma", *wl);
    EXPECT_EQ(s.scomaAllocations, 3u);
    EXPECT_EQ(s.scomaReplacements, 0u);
    // Sweeps 2 and 3 are pure page-cache (local memory) hits.
    EXPECT_GE(s.pageCacheHits, 2u * 3u * p.blocksPerPage());
    EXPECT_EQ(s.refetches, 0u);
}

TEST(MachineSComa, ThrashesWhenRemotePagesExceedFrames)
{
    Params p = test::smallParams();
    // 8 remote pages vs 4 frames, swept repeatedly with LRM: every
    // sweep replaces pages.
    auto wl = makeHotRemoteReuse(p, 8, 3);
    RunStats s = runProtocol(p, "scoma", *wl);
    EXPECT_GT(s.scomaReplacements, 8u);
    EXPECT_GT(s.flushedBlocks, 0u);
    // Replaced pages are flushed (notifying), so nothing counts as a
    // refetch.
    EXPECT_EQ(s.refetches, 0u);
    // S-COMA runs the shared RAD with no relocation policy: pages
    // fault in, never relocate, and the R-NUMA-only eviction-utility
    // counters stay untouched.
    EXPECT_EQ(s.relocations, 0u);
    EXPECT_EQ(s.evictionsZeroHit, 0u);
    EXPECT_EQ(s.evictedPageHits, 0u);
}

TEST(MachineSComa, SlowerThanCcNumaForCommunicationPages)
{
    // em3d/fft-style producer-consumer traffic: S-COMA pays page
    // allocations for data that is invalidated before reuse.
    Params p = test::smallParams();
    auto wl = makeProducerConsumer(p, 6, 4);
    RunStats sc = runProtocol(p, "scoma", *wl);
    RunStats cc = runProtocol(p, "ccnuma", *wl);
    EXPECT_GT(sc.scomaAllocations, 0u);
    EXPECT_GE(sc.ticks, cc.ticks);
}

TEST(MachineSComa, FasterThanCcNumaForReusePages)
{
    Params p = test::smallParams();
    // 3 pages fit the page cache but overflow nothing else; 6 sweeps
    // of reuse dominate.
    auto wl = makeHotRemoteReuse(p, 3, 6);
    RunStats sc = runProtocol(p, "scoma", *wl);
    RunStats cc = runProtocol(p, "ccnuma", *wl);
    // 3 pages = 48 blocks > 32-block block cache: CC-NUMA refetches
    // every sweep while S-COMA hits local memory.
    EXPECT_LT(sc.ticks, cc.ticks);
}

TEST(MachineSComa, WriteToReadOnlyTagUpgrades)
{
    Params p = test::smallParams();
    auto wl = std::make_unique<Workload>("upg", 4);
    Addr x = 0;
    wl->push(2, Ref::touchOf(x)); // home node 1
    wl->pushBarrierAll();
    wl->push(0, Ref::mem(x, false, 0)); // fetch read-only
    wl->push(0, Ref::mem(x, true, 0));  // upgrade the fine tag
    wl->seal();
    RunStats s = runProtocol(p, "scoma", *wl);
    EXPECT_GE(s.upgrades, 1u);
}

TEST(MachineSComa, PrivateDataNeverTouchesThePageCache)
{
    Params p = test::smallParams();
    auto wl = makePrivateLoop(p, 2, 2);
    RunStats s = runProtocol(p, "scoma", *wl);
    EXPECT_EQ(s.scomaAllocations, 0u);
    EXPECT_EQ(s.pageCacheHits, 0u);
    EXPECT_EQ(s.remoteFetches, 0u);
}

} // namespace rnuma
