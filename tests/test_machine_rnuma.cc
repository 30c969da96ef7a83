/**
 * @file
 * Machine-level tests of R-NUMA: the reactive relocation mechanism,
 * page-mode lifecycle (CC-NUMA -> S-COMA -> eviction -> CC-NUMA),
 * and the "best of both" behavior the paper claims.
 */

#include <gtest/gtest.h>

#include "os/page_table.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"

#include "test_util.hh"

namespace rnuma
{

TEST(MachineRNuma, RelocatesReusePagesAfterThreshold)
{
    Params p = test::smallParams(); // threshold 4, 4 frames
    // 2 reuse pages, swept many times: each page accumulates
    // refetches in the tiny 64-byte block cache and relocates.
    auto wl = makeHotRemoteReuse(p, 2, 8);
    RunStats s = runProtocol(p, "rnuma", *wl);
    EXPECT_EQ(s.relocations, 2u);
    EXPECT_GT(s.pageCacheHits, 0u);
    // Relocation moves only the blocks held locally (Section 5.1);
    // the rest of each page refetches once into the fine-grain tags,
    // after which refetches stop. Bound: threshold + one refill of
    // the page, per page.
    EXPECT_LT(s.refetches,
              2u * (p.relocationThreshold + p.blocksPerPage()) + 8u);
}

TEST(MachineRNuma, PageModeIsSComaAfterRelocation)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 2, 8);
    wl->reset();
    Machine m(p, protocolSpec("rnuma"), *wl);
    m.run();
    // The accessing node is node 0; both remote pages relocated.
    PageTable &pt = m.node(0).pageTable();
    EXPECT_EQ(pt.countMode(PageMode::SComa), 2u);
}

TEST(MachineRNuma, CommunicationPagesNeverRelocate)
{
    Params p = test::smallParams();
    auto wl = makeProducerConsumer(p, 4, 6);
    RunStats s = runProtocol(p, "rnuma", *wl);
    // Invalidation-induced misses are not refetches; the pages stay
    // CC-NUMA.
    EXPECT_EQ(s.relocations, 0u);
    EXPECT_EQ(s.scomaAllocations, 0u);
}

TEST(MachineRNuma, BouncesWhenReuseSetExceedsPageCache)
{
    Params p = test::smallParams(); // 4 frames
    auto wl = makeHotRemoteReuse(p, 8, 10);
    RunStats s = runProtocol(p, "rnuma", *wl);
    // More relocations than pages: evicted pages revert to CC-NUMA
    // and relocate again (fmm/radix behavior in Section 5.2).
    EXPECT_GT(s.relocations, 8u);
    EXPECT_GT(s.scomaReplacements, 0u);
}

TEST(MachineRNuma, MatchesBestProtocolOnBothExtremes)
{
    Params p = test::smallParams();
    // Each system's ticks normalized to the infinite-block-cache ideal.
    auto norm = [&p](Workload &wl, const char *id) {
        return normalizedTime(runProtocol(p, id, wl).ticks,
                              runInfiniteBaseline(p, wl).ticks);
    };

    // Reuse-dominated: R-NUMA must be far closer to S-COMA than to
    // CC-NUMA.
    auto reuse = makeHotRemoteReuse(p, 3, 8);
    EXPECT_LT(norm(*reuse, "rnuma"), norm(*reuse, "ccnuma"));

    // Communication-dominated: R-NUMA must be far closer to CC-NUMA
    // than to S-COMA.
    auto comm = makeProducerConsumer(p, 6, 4);
    double rn = norm(*comm, "rnuma");
    EXPECT_LT(rn, norm(*comm, "scoma"));
    EXPECT_LT(rn - norm(*comm, "ccnuma"), 0.25);
}

TEST(MachineRNuma, ThresholdOneRelocatesOnFirstRefetch)
{
    Params p = test::smallParams();
    p.relocationThreshold = 1;
    auto wl = makeHotRemoteReuse(p, 2, 3);
    RunStats s = runProtocol(p, "rnuma", *wl);
    EXPECT_EQ(s.relocations, 2u);
}

TEST(MachineRNuma, HugeThresholdDegeneratesToCcNuma)
{
    Params p = test::smallParams();
    p.relocationThreshold = 1u << 20;
    auto wl = makeHotRemoteReuse(p, 4, 4);
    RunStats rn = runProtocol(p, "rnuma", *wl);
    EXPECT_EQ(rn.relocations, 0u);
    EXPECT_EQ(rn.scomaAllocations, 0u);
    EXPECT_EQ(rn.pageCacheHits, 0u);
}

TEST(MachineRNuma, RwSharingStaysCoherent)
{
    Params p = test::smallParams();
    auto wl = makeRwSharing(p, 50);
    RunStats s = runProtocol(p, "rnuma", *wl);
    EXPECT_GT(s.invalidationsSent, 0u);
    // Conservation: every remote fetch is classified exactly once.
    EXPECT_EQ(s.coldMisses + s.coherenceMisses + s.refetches,
              s.remoteFetches);
}

} // namespace rnuma
