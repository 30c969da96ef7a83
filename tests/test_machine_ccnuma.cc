/** @file Machine-level tests of the CC-NUMA protocol. */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"

#include "test_util.hh"

namespace rnuma
{

TEST(MachineCcNuma, PrivateDataHasNoRemoteTraffic)
{
    Params p = test::smallParams();
    // One page per CPU (16 blocks) fits the 16-line L1 exactly, so
    // iterations 2+ hit in the L1.
    auto wl = makePrivateLoop(p, 1, 3);
    RunStats s = runProtocol(p, "ccnuma", *wl);
    EXPECT_EQ(s.remoteFetches, 0u);
    EXPECT_EQ(s.refetches, 0u);
    EXPECT_EQ(s.scomaAllocations, 0u);
    EXPECT_GT(s.localFills, 0u);
    EXPECT_GT(s.l1Hits, 0u);
}

TEST(MachineCcNuma, HotReuseBeyondBlockCacheRefetches)
{
    Params p = test::smallParams(); // 1 KB block cache = 32 blocks
    // 8 remote pages x 16 blocks = 128 blocks, swept 3 times.
    auto wl = makeHotRemoteReuse(p, 8, 3);
    RunStats s = runProtocol(p, "ccnuma", *wl);
    EXPECT_GT(s.refetches, 100u);
    // Page stats recorded against all 8 remote pages (Figure 5 data).
    EXPECT_EQ(s.remotePageCount(), 8u);
    // CC-NUMA runs the shared RAD with no relocation policy: however
    // many refetches a page takes, it never leaves the block cache.
    EXPECT_EQ(s.relocations, 0u);
    EXPECT_EQ(s.scomaAllocations, 0u);
    EXPECT_EQ(s.scomaReplacements, 0u);
}

TEST(MachineCcNuma, InfiniteBlockCacheEliminatesRefetches)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 8, 3);
    RunStats finite = runProtocol(p, "ccnuma", *wl);
    RunStats infinite = runInfiniteBaseline(p, *wl);
    EXPECT_EQ(infinite.refetches, 0u);
    EXPECT_LT(infinite.ticks, finite.ticks);
    // Cold misses identical: one per remote block.
    EXPECT_EQ(infinite.coldMisses, 8u * p.blocksPerPage());
}

TEST(MachineCcNuma, ProducerConsumerIsCoherenceTraffic)
{
    Params p = test::smallParams();
    auto wl = makeProducerConsumer(p, 2, 4);
    RunStats s = runProtocol(p, "ccnuma", *wl);
    EXPECT_GT(s.coherenceMisses, 0u);
    // The consumer's copies are invalidated each round; nothing is a
    // capacity refetch (2 pages = 32 blocks fit the block cache).
    EXPECT_EQ(s.refetches, 0u);
    EXPECT_GT(s.invalidationsSent, 0u);
}

TEST(MachineCcNuma, FirstTouchFaultsOncePerRemotePageAndNode)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 4, 2);
    RunStats s = runProtocol(p, "ccnuma", *wl);
    // Only node 0 references the 4 remote pages: 4 mapping faults.
    EXPECT_EQ(s.pageFaults, 4u);
}

TEST(MachineCcNuma, DeterministicAcrossIdenticalRuns)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 6, 3);
    RunStats a = runProtocol(p, "ccnuma", *wl);
    RunStats b = runProtocol(p, "ccnuma", *wl);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.remoteFetches, b.remoteFetches);
    EXPECT_EQ(a.refetches, b.refetches);
}

TEST(MachineCcNuma, RunTwicePanics)
{
    Params p = test::smallParams();
    auto wl = makePrivateLoop(p, 1, 1);
    Machine m(p, protocolSpec("ccnuma"), *wl);
    m.run();
    EXPECT_THROW(m.run(), std::logic_error);
}

TEST(MachineCcNuma, WorkloadCpuMismatchIsRejected)
{
    Params p = test::smallParams();
    Workload wl("bad", 2); // machine wants 4
    wl.seal();
    EXPECT_THROW(Machine(p, protocolSpec("ccnuma"), wl), std::logic_error);
}

} // namespace rnuma
