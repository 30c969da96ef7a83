/**
 * @file
 * Machine-level test of how the RAD (rad/rnuma_rad.hh) charges the
 * OS interventions' fixed Table 2 costs: every OS cycle of a run is
 * accounted for by its fault, allocation, replacement, relocation and
 * flush counters.
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/registry.hh"

namespace rnuma
{

/**
 * Every OS cycle is one Table 2 charge: a soft trap per CC-NUMA
 * mapping fault, and pageOpCost(blocks) per S-COMA allocation, page
 * replacement or relocation, where blocks are the ones flushed or
 * moved. With F = pageFaults - scomaAllocations mapping faults, the
 * run's osCycles must decompose exactly into those charges. lu is
 * left out: at scale 0.1 it references no remote page.
 */
TEST(RadOsCycles, AreTheTableTwoChargesOfTheCountedEvents)
{
    const Params p = Params::base();
    const Tick op = p.pageOpCost(0);
    // Some apps replace no page at this scale; the four together
    // must exercise every term.
    std::uint64_t scoma_flushed = 0, rnuma_replaced = 0,
                  rnuma_flushed = 0;
    for (const char *app : {"radix", "ocean", "fmm", "barnes"}) {
        SCOPED_TRACE(app);
        auto wl = makeWorkload(app, p, 0.1);

        RunStats cc = runProtocol(p, "ccnuma", *wl);
        ASSERT_GT(cc.pageFaults, 0u);
        EXPECT_EQ(cc.scomaAllocations, 0u);
        EXPECT_EQ(cc.osCycles, cc.pageFaults * p.softTrap);

        RunStats sc = runProtocol(p, "scoma", *wl);
        ASSERT_GT(sc.scomaAllocations, 0u);
        EXPECT_EQ(sc.pageFaults, sc.scomaAllocations);
        EXPECT_EQ(sc.osCycles, sc.scomaAllocations * op +
                                   sc.flushedBlocks * p.blockFlush);

        // A relocation also pays for the blocks it moved into the
        // frame, which no counter records: what is left over must be
        // a whole number of block moves, at most a page per
        // relocation.
        RunStats rn = runProtocol(p, "rnuma", *wl);
        ASSERT_GT(rn.pageFaults, 0u);
        ASSERT_GT(rn.relocations, 0u);
        const std::uint64_t faults = rn.pageFaults - rn.scomaAllocations;
        const Tick fixed = faults * p.softTrap +
            (rn.relocations + rn.scomaReplacements) * op +
            rn.flushedBlocks * p.blockFlush;
        ASSERT_GE(rn.osCycles, fixed);
        const Tick moved = rn.osCycles - fixed;
        EXPECT_EQ(moved % p.blockFlush, 0u);
        EXPECT_GT(moved, 0u);
        EXPECT_LE(moved,
                  p.blockFlush * rn.relocations * p.blocksPerPage());

        scoma_flushed += sc.flushedBlocks;
        rnuma_replaced += rn.scomaReplacements;
        rnuma_flushed += rn.flushedBlocks;
    }
    EXPECT_GT(scoma_flushed, 0u);
    EXPECT_GT(rnuma_replaced, 0u);
    EXPECT_GT(rnuma_flushed, 0u);
}

} // namespace rnuma
