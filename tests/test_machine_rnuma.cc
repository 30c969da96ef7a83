/**
 * @file
 * Machine-level tests of R-NUMA: the reactive relocation mechanism,
 * page-mode lifecycle (CC-NUMA -> S-COMA -> eviction -> CC-NUMA),
 * and the "best of both" behavior the paper claims.
 */

#include <gtest/gtest.h>

#include "os/page_table.hh"
#include "rad/rnuma_rad.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"
#include "workload/registry.hh"

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

TEST(MachineRNuma, PageTableAndPageCacheAgreeAfterChurn)
{
    // A rotating hot set over a 4-frame page cache at threshold 1:
    // pages relocate in, are evicted (unmapped) and relocate again.
    // Through all of it a node's page table maps a page S-COMA
    // exactly when its page cache holds the page.
    Params p = test::smallParams();
    p.relocationThreshold = 1;
    auto wl = makeWorkload("phase-shift", p, 1.0, 1,
                           "pages=24,phases=6,sweeps=4");
    wl->reset();
    Machine m(p, protocolSpec("rnuma"), *wl);
    RunStats s = m.run();
    ASSERT_GT(s.relocations, 0u);
    ASSERT_GT(s.scomaReplacements, 0u);
    const Addr pages = wl->addrLimit() / p.pageSize;
    ASSERT_GT(pages, 0u);
    for (NodeId n = 0; n < p.numNodes; ++n) {
        const PageTable &pt = m.node(n).pageTable();
        const PageCache &pc =
            dynamic_cast<const RNumaRad &>(m.node(n).rad()).pageCache();
        std::size_t cached = 0;
        for (Addr page = 0; page < pages; ++page) {
            const bool scoma = pt.modeOf(page) == PageMode::SComa;
            EXPECT_EQ(scoma, pc.contains(page))
                << "node " << n << " page " << page;
            cached += scoma;
        }
        EXPECT_EQ(cached, pc.used()) << "node " << n;
        EXPECT_EQ(cached, pt.countMode(PageMode::SComa)) << "node " << n;
    }
}

TEST(MachineRNuma, EvictionsReportResidentHitsToRunStats)
{
    // The residency-feedback path end to end: a rotating hot set over
    // the 4-frame page cache relocates pages and then evicts them,
    // and each eviction's page-cache hits reach RunStats. A zero-hit
    // eviction is one kind of S-COMA replacement, so it can never
    // outnumber them.
    Params p = test::smallParams();
    auto wl = makeWorkload("phase-shift", p, 1.0, 1,
                           "pages=24,phases=6,sweeps=16");
    RunStats s = runProtocol(p, "rnuma-online-model", *wl);
    EXPECT_GT(s.relocations, 0u);
    EXPECT_GT(s.evictedPageHits, 0u);
    EXPECT_LE(s.evictionsZeroHit, s.scomaReplacements);
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
