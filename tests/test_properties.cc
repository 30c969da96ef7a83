/**
 * @file
 * System-level property tests: the Section 3.2 competitive bound on
 * the adversarial reference stream, directory invariants after
 * arbitrary runs, and cross-protocol sanity properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/analytic_model.hh"
#include "proto/directory.hh"
#include "rad/rnuma_rad.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"
#include "workload/registry.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

/** Execution times of the three paper systems, normalized to the
 *  infinite-block-cache ideal (Figure 6). */
struct Normalized
{
    double cc, sc, rn;
};

Normalized
normalizedOf(const Params &p, Workload &wl)
{
    Tick ideal = runInfiniteBaseline(p, wl).ticks;
    auto norm = [&](const char *id) {
        return normalizedTime(runProtocol(p, id, wl).ticks, ideal);
    };
    return {norm("ccnuma"), norm("scoma"), norm("rnuma")};
}

} // namespace

TEST(Properties, Eq1Eq2PredictAdversaryOverheads)
{
    // The Section 3.2 worst case: pages accumulate exactly the
    // threshold's worth of refetches, relocate, and die. EQ 1 and
    // EQ 2 predict R-NUMA's overhead ratio against each base
    // protocol at the configured threshold; the measured ratios
    // (relative to the infinite-block-cache ideal) must respect the
    // predictions with slack for the contention effects the model
    // ignores.
    Params p = test::smallParams(); // threshold 4
    auto wl = makeAdversary(p, 12, p.relocationThreshold + 1);
    Normalized n = normalizedOf(p, *wl);

    double o_cc = n.cc - 1.0;
    double o_sc = n.sc - 1.0;
    double o_rn = n.rn - 1.0;
    ASSERT_GT(o_cc, 0.0);
    ASSERT_GT(o_sc, 0.0);

    // Structural per-page costs in the measured system. The paper's
    // model compares "extra overheads" against the ideal machine:
    //  - CC-NUMA's extra is T refetches (the soft map fault is paid
    //    by the ideal baseline too and cancels);
    //  - S-COMA's extra is one allocation, *minus* the map fault it
    //    replaces;
    //  - R-NUMA's extra is T refetches plus a relocation plus the
    //    page's eventual replacement (both full page operations).
    double cr = static_cast<double>(p.remoteFetch());
    double page_op = static_cast<double>(p.pageOpCost(1));
    double trap = static_cast<double>(p.softTrap);
    double T = static_cast<double>(p.relocationThreshold);
    double rn_pred = T * cr + 2.0 * page_op;
    double cc_pred = T * cr;
    double sc_pred = page_op - trap;

    EXPECT_LE(o_rn, rn_pred / cc_pred * o_cc * 1.35)
        << "EQ 1 violated: measured ratio " << o_rn / o_cc
        << " vs predicted " << rn_pred / cc_pred;
    EXPECT_LE(o_rn, rn_pred / sc_pred * o_sc * 1.35)
        << "EQ 2 violated: measured ratio " << o_rn / o_sc
        << " vs predicted " << rn_pred / sc_pred;
}

TEST(Properties, BoundedAtEmpiricalOptimalThreshold)
{
    // EQ 3's structure: choosing T at the intersection of the two
    // overhead curves bounds R-NUMA's worst case by a computable
    // constant independent of how long the adversary runs.
    Params p = test::smallParams();
    double cr = static_cast<double>(p.remoteFetch());
    double page_op = static_cast<double>(p.pageOpCost(1));
    double sc_pred = page_op - static_cast<double>(p.softTrap);
    p.relocationThreshold =
        static_cast<std::size_t>(sc_pred / cr + 0.5);
    ASSERT_GE(p.relocationThreshold, 1u);

    auto wl = makeAdversary(p, 12, p.relocationThreshold + 1);
    Normalized n = normalizedOf(p, *wl);
    double o_cc = n.cc - 1.0;
    double o_sc = n.sc - 1.0;
    double o_rn = n.rn - 1.0;
    double best = std::min(o_cc, o_sc);
    ASSERT_GT(best, 0.0);

    double T = static_cast<double>(p.relocationThreshold);
    double bound = (T * cr + 2.0 * page_op) /
        std::min(T * cr, sc_pred);
    EXPECT_LE(o_rn, bound * best * 1.35)
        << "R-NUMA overhead " << o_rn << " vs best " << best
        << " exceeds the adjusted competitive bound " << bound;
}

TEST(Properties, AdversaryTriggersTheFullLifecycle)
{
    Params p = test::smallParams();
    auto wl = makeAdversary(p, 12, p.relocationThreshold + 1);
    RunStats s = runProtocol(p, "rnuma", *wl);
    // Pages relocate and later get replaced (12 pages vs 4 frames).
    EXPECT_GT(s.relocations, 4u);
    EXPECT_GT(s.scomaReplacements, 0u);
}

TEST(Properties, RnumaNeverWorseThanBothOnMicrobenchmarks)
{
    // Section 6: "R-NUMA never performs worse than both CC-NUMA and
    // S-COMA." Check on both extremes of the microbenchmark space.
    Params p = test::smallParams();
    for (auto make : {+[](const Params &pp) {
                          return makeHotRemoteReuse(pp, 6, 6);
                      },
                      +[](const Params &pp) {
                          return makeProducerConsumer(pp, 4, 5);
                      }}) {
        auto wl = make(p);
        Normalized n = normalizedOf(p, *wl);
        double worst = std::max(n.cc, n.sc);
        EXPECT_LE(n.rn, worst * 1.05)
            << "workload " << wl->name();
    }
}

namespace
{

/**
 * Walk every directory entry and check the invariants every protocol
 * keeps: an owner is named by the sharer set, and the set names no
 * node outside the owner's region (so at most one node holds the
 * block exclusively; the region is one node except in a coarse
 * vector); and every node an exact set names (full map, or a limited
 * pointer set that has not overflowed) has fetched the block.
 * @return the number of entries walked.
 */
std::size_t
checkDirectoryInvariants(Machine &m, const Params &p)
{
    const Directory &dir = m.protocol().directory();
    const std::size_t region = p.dirFormat == SharerFormat::CoarseVector
        ? p.dirRegionSize
        : 1;
    std::size_t entries = 0;
    dir.forEachEntry([&](Addr block, const DirEntry &e) {
        ++entries;
        const SharerSet sharers = dir.sharers(e);
        const SharerSet touched = dir.touched(e);
        if (e.hasOwner()) {
            EXPECT_TRUE(sharers.test(e.owner))
                << "owner " << e.owner << " without its sharer bit at "
                << block;
            sharers.forEach([&](NodeId n) {
                EXPECT_EQ(n / region, e.owner / region)
                    << "block " << block << " owned by " << e.owner
                    << " also names node " << n;
            });
            EXPECT_TRUE(touched.test(e.owner)) << "block " << block;
        }
        for (const SharerSet set : {sharers, dir.prior(e)}) {
            if (p.dirFormat == SharerFormat::CoarseVector ||
                set.overflowed())
                continue;
            set.forEach([&](NodeId n) {
                EXPECT_TRUE(touched.test(n))
                    << "block " << block << " names node " << n
                    << ", which never fetched it";
            });
        }
    });
    EXPECT_EQ(entries, dir.size());
    return entries;
}

} // namespace

TEST(Properties, OwnerImpliesSharerBit)
{
    Params p = test::smallParams();
    auto wl = makeRwSharing(p, 60);
    wl->reset();
    Machine m(p, protocolSpec("rnuma"), *wl);
    m.run();
    EXPECT_GT(checkDirectoryInvariants(m, p), 0u);
}

/** The directory invariants on every protocol's end state. */
class DirectoryInvariants
    : public ::testing::TestWithParam<std::tuple<SharerFormat, int>>
{
};

TEST_P(DirectoryInvariants, HoldAfterAWriteSharedMeshRun)
{
    auto [fmt, priorOwner] = GetParam();
    Params p = test::smallParams();
    p.numNodes = 16;
    p.networkModel = "mesh-2d";
    p.dirFormat = fmt;
    p.dirPointers = 2;
    p.dirRegionSize = 4;
    p.priorOwnerState = priorOwner != 0;
    p.validate();
    auto wl = makeWorkload("zipf-serve", p, 1.0, 7,
                           "pages=24,theta=0.6,write=0.3,requests=40");
    for (const ProtocolSpec *spec : ProtocolRegistry::global().all()) {
        SCOPED_TRACE(spec->id);
        wl->reset();
        Machine m(p, *spec, *wl);
        RunStats s = m.run();
        ASSERT_GT(s.invalidationsSent, 0u);
        EXPECT_GT(checkDirectoryInvariants(m, p), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, DirectoryInvariants,
    ::testing::Combine(::testing::Values(SharerFormat::FullMap,
                                         SharerFormat::LimitedPointer,
                                         SharerFormat::CoarseVector),
                       ::testing::Values(0, 1)));

/**
 * A held copy implies the directory's touched bit: every block a
 * node's L1s, block cache or page cache holds was fetched by that
 * node. GlobalProtocol::fetch relies on it to skip the invalidation
 * downcalls into the other nodes a sparse sharer set names.
 */
class HeldImpliesTouched
    : public ::testing::TestWithParam<
          std::tuple<SharerFormat, std::string, std::size_t>>
{
};

TEST_P(HeldImpliesTouched, AfterWriteSharedMeshRun)
{
    auto [fmt, proto, threshold] = GetParam();
    Params p = test::smallParams(); // 4-frame page cache
    p.numNodes = 16;
    p.networkModel = "mesh-2d";
    p.dirFormat = fmt;
    p.dirPointers = 4;
    p.dirRegionSize = 8;
    p.relocationThreshold = threshold;
    p.validate();
    auto wl = makeWorkload("zipf-serve", p, 1.0, 7,
                           "pages=24,theta=0.6,write=0.3,requests=40");
    wl->reset();
    Machine m(p, protocolSpec(proto), *wl);
    RunStats s = m.run();
    ASSERT_GT(s.invalidationsSent, 0u);
    if (proto == "scoma") {
        ASSERT_GT(s.scomaReplacements, 0u);
    } else if (proto == "rnuma") {
        ASSERT_GT(s.relocations, 0u);
    }

    const Directory &dir = m.protocol().directory();
    const Addr pages = wl->addrLimit() / p.pageSize;
    std::size_t copies = 0;
    for (NodeId n = 0; n < p.numNodes; ++n) {
        auto held = [&](Addr block, const char *where) {
            const DirEntry *e = dir.peek(block);
            EXPECT_TRUE(e && dir.touched(*e).test(n))
                << "node " << n << " holds block " << block << " in its "
                << where << " but never fetched it";
            copies++;
        };
        m.node(n).l1s().forEachValid(
            [&](const CacheLine &l) { held(l.addr, "L1s"); });
        const auto &rad = dynamic_cast<const RNumaRad &>(m.node(n).rad());
        rad.blockCache().forEachValid(
            [&](const CacheLine &l) { held(l.addr, "block cache"); });
        const PageCache &pc = rad.pageCache();
        for (Addr page = 0; page < pages; ++page) {
            if (!pc.contains(page))
                continue;
            pc.forEachValid(page, [&](std::size_t idx, FineTag) {
                held(page * p.pageSize + idx * p.blockSize, "page cache");
            });
        }
    }
    EXPECT_GT(copies, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FormatsByProtocol, HeldImpliesTouched,
    ::testing::Combine(::testing::Values(SharerFormat::FullMap,
                                         SharerFormat::LimitedPointer,
                                         SharerFormat::CoarseVector),
                       ::testing::Values("ccnuma", "scoma", "rnuma"),
                       ::testing::Values(std::size_t{1}, std::size_t{2})));

/** Cross-protocol conservation sweep over apps and protocols. */
class ConservationSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(ConservationSweep, MissKindsAndServiceCountsAddUp)
{
    auto [app, proto] = GetParam();
    Params p = test::paperParams();
    auto wl = makeWorkload(app, p, 0.1);
    RunStats s = runProtocol(p, proto, *wl);
    EXPECT_EQ(s.coldMisses + s.coherenceMisses + s.refetches,
              s.remoteFetches);
    // Every reference is a hit, an upgrade, or a miss.
    EXPECT_EQ(s.refs, s.l1Hits + s.l1Misses + s.upgrades);
    // Stall time is bounded by total time across CPUs.
    EXPECT_LE(s.stallCycles,
              s.ticks * p.numCpus());
}

INSTANTIATE_TEST_SUITE_P(
    AppsByProtocol, ConservationSweep,
    ::testing::Combine(::testing::Values("barnes", "em3d", "moldyn",
                                         "radix", "ocean"),
                       ::testing::Values("ccnuma", "scoma", "rnuma")),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, std::string>> &info) {
        // Readable, filterable names: barnes_ccnuma, radix_rnuma...
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

} // namespace rnuma
