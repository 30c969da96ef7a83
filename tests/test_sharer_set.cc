/**
 * @file
 * Tests for the pluggable directory sharer-set representations
 * (proto/directory.hh): full-map exactness, limited-pointer Dir_iB
 * broadcast-on-overflow, coarse-vector region semantics, the
 * over-approximation invariant both sparse formats must uphold
 * (a set node is always reported until a full reset), a randomized
 * differential check of the machine-width bit layout against a
 * reference model of the format semantics, the per-entry storage
 * model, and machine-level bit-identity of limited-pointer against
 * full-map when the sharer count never exceeds the pointer budget,
 * up to the 512-node ceiling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <random>
#include <vector>

#include "proto/directory.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"
#include "workload/registry.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

DirConfig
cfgOf(SharerFormat fmt, std::size_t nodes, std::size_t ptrs = 4,
      std::size_t region = 8)
{
    DirConfig c;
    c.format = fmt;
    c.nodes = nodes;
    c.pointers = ptrs;
    c.regionSize = region;
    return c;
}

/** The sharer set of one entry on a fresh one-entry directory. */
struct OneSet
{
    explicit OneSet(const DirConfig &cfg)
        : dir(1, 1, cfg), set(dir.sharers(dir.entry(0)))
    {
    }
    OneSet(const OneSet &) = delete;
    OneSet &operator=(const OneSet &) = delete;

    Directory dir;
    SharerSet set;
};

/**
 * Reference model of the format semantics, written the obvious way:
 * a node vector for full-map, a list of exact ids plus an overflow
 * flag for limited-pointer, a region vector for coarse-vector.
 */
class RefSet
{
  public:
    explicit RefSet(const DirConfig &c)
        : c_(c), bits_(c.nodes), regions_((c.nodes + c.regionSize - 1) /
                                          c.regionSize)
    {
    }

    void
    set(NodeId n)
    {
        switch (c_.format) {
          case SharerFormat::FullMap:
            bits_[n] = true;
            return;
          case SharerFormat::LimitedPointer:
            if (overflowed_ || have(n))
                return;
            if (ptrs_.size() < c_.pointers) {
                ptrs_.push_back(n);
            } else {
                ptrs_.clear();
                overflowed_ = true;
            }
            return;
          case SharerFormat::CoarseVector:
            regions_[n / c_.regionSize] = true;
            return;
        }
    }

    void
    reset(NodeId n)
    {
        if (c_.format == SharerFormat::FullMap)
            bits_[n] = false;
        else if (c_.format == SharerFormat::LimitedPointer && !overflowed_)
            ptrs_.erase(std::remove(ptrs_.begin(), ptrs_.end(), n),
                        ptrs_.end());
    }

    void
    reset()
    {
        std::fill(bits_.begin(), bits_.end(), false);
        std::fill(regions_.begin(), regions_.end(), false);
        ptrs_.clear();
        overflowed_ = false;
    }

    bool
    test(NodeId n) const
    {
        switch (c_.format) {
          case SharerFormat::FullMap:
            return bits_[n];
          case SharerFormat::LimitedPointer:
            return overflowed_ || have(n);
          case SharerFormat::CoarseVector:
            return regions_[n / c_.regionSize];
        }
        return false;
    }

    std::size_t
    count() const
    {
        std::size_t k = 0;
        for (NodeId n = 0; n < c_.nodes; ++n)
            k += test(n);
        return k;
    }

    bool none() const { return count() == 0; }

    bool overflowed() const { return overflowed_; }

  private:
    bool
    have(NodeId n) const
    {
        return std::find(ptrs_.begin(), ptrs_.end(), n) != ptrs_.end();
    }

    DirConfig c_;
    std::vector<bool> bits_;
    std::vector<bool> regions_;
    std::vector<NodeId> ptrs_;
    bool overflowed_ = false;
};

/** A base-like machine scaled to @p nodes with tiny caches. */
Params
manyNodeParams(std::size_t nodes, SharerFormat fmt)
{
    Params p = test::smallParams();
    p.numNodes = nodes;
    p.cpusPerNode = 1;
    p.dirFormat = fmt;
    p.validate();
    return p;
}

} // namespace

TEST(SharerSet, LimitedPointerIsExactUnderCapacity)
{
    OneSet lpv(cfgOf(SharerFormat::LimitedPointer, 32, 4));
    OneSet fmv(cfgOf(SharerFormat::FullMap, 32));
    SharerSet &lp = lpv.set, &fm = fmv.set;
    for (NodeId n : {3, 9, 17, 3}) { // re-set of 3 must not burn a ptr
        lp.set(n);
        fm.set(n);
    }
    for (NodeId n = 0; n < 32; ++n)
        EXPECT_EQ(lp.test(n), fm.test(n)) << "node " << int(n);
    EXPECT_EQ(test::sharerCount(lp), 3u);
    EXPECT_FALSE(lp.overflowed());
    // Individual removal works while exact.
    lp.reset(9);
    fm.reset(9);
    for (NodeId n = 0; n < 32; ++n)
        EXPECT_EQ(lp.test(n), fm.test(n)) << "node " << int(n);
    // A fourth distinct sharer still fits the 4-pointer budget.
    lp.set(20);
    EXPECT_FALSE(lp.overflowed());
    EXPECT_EQ(test::sharerCount(lp), 3u);
}

TEST(SharerSet, LimitedPointerOverflowBroadcasts)
{
    OneSet v(cfgOf(SharerFormat::LimitedPointer, 16, 2));
    SharerSet &lp = v.set;
    lp.set(1);
    lp.set(2);
    EXPECT_FALSE(lp.overflowed());
    lp.set(3); // third distinct sharer: Dir_2B degrades to broadcast
    EXPECT_TRUE(lp.overflowed());
    // Broadcast means every node appears shared...
    for (NodeId n = 0; n < 16; ++n)
        EXPECT_TRUE(lp.test(n));
    EXPECT_EQ(test::sharerCount(lp), 16u);
    EXPECT_FALSE(lp.none());
    // ...individual removal cannot un-broadcast (the hardware no
    // longer knows who holds copies)...
    lp.reset(1);
    EXPECT_TRUE(lp.test(1));
    // ...but a full reset (invalidation of everyone) is exact.
    lp.reset();
    EXPECT_TRUE(lp.none());
    EXPECT_FALSE(lp.overflowed());
    EXPECT_FALSE(lp.test(1));
}

TEST(SharerSet, CoarseVectorTracksRegions)
{
    OneSet v(cfgOf(SharerFormat::CoarseVector, 32, 4, 8));
    SharerSet &cv = v.set;
    cv.set(9); // region 1 (nodes 8..15)
    // The whole region appears shared; other regions do not.
    for (NodeId n = 8; n < 16; ++n)
        EXPECT_TRUE(cv.test(n));
    EXPECT_FALSE(cv.test(7));
    EXPECT_FALSE(cv.test(16));
    EXPECT_EQ(test::sharerCount(cv), 8u);
    // Individual removal is a no-op: node 12 may also be sharing.
    cv.reset(9);
    EXPECT_TRUE(cv.test(9));
    cv.reset();
    EXPECT_TRUE(cv.none());
}

TEST(SharerSet, CoarseVectorCountsAPartialLastRegionExactly)
{
    // Nine nodes in 8-node regions: region 1 holds node 8 alone, so a
    // lone sharer there is one apparent sharer, not eight.
    OneSet v(cfgOf(SharerFormat::CoarseVector, 9, 4, 8));
    SharerSet &cv = v.set;
    cv.set(8);
    EXPECT_EQ(test::sharerCount(cv), 1u);
    cv.set(0);
    std::vector<NodeId> seen;
    cv.forEach([&](NodeId n) { seen.push_back(n); });
    EXPECT_EQ(seen.size(), 9u);
    EXPECT_EQ(seen.back(), 8u);
}

TEST(SharerSet, OnlyHolderQueryMatchesResetThenNone)
{
    // noneExcept(n) answers what copying the set, resetting n and
    // asking none() would: false once a limited-pointer set has
    // overflowed, and for coarse-vector true only with no region set.
    OneSet lpv(cfgOf(SharerFormat::LimitedPointer, 16, 1));
    lpv.set.set(3);
    EXPECT_TRUE(lpv.set.noneExcept(3));
    EXPECT_FALSE(lpv.set.noneExcept(4));
    lpv.set.set(4); // overflow
    EXPECT_FALSE(lpv.set.noneExcept(3));

    OneSet cvv(cfgOf(SharerFormat::CoarseVector, 16, 4, 8));
    EXPECT_TRUE(cvv.set.noneExcept(3));
    cvv.set.set(3);
    EXPECT_FALSE(cvv.set.noneExcept(3));

    OneSet fmv(cfgOf(SharerFormat::FullMap, 130));
    fmv.set.set(129);
    EXPECT_TRUE(fmv.set.noneExcept(129));
    EXPECT_FALSE(fmv.set.noneExcept(1));
}

TEST(SharerSet, SparseFormatsNeverMissATrueSharer)
{
    // The invariant invalidation correctness rests on: any node that
    // was set() and not individually reset() must test() true, in
    // every format, whatever the interleaving — over-approximation
    // is allowed, under-approximation is a coherence bug.
    std::mt19937 rng(7);
    for (SharerFormat fmt :
         {SharerFormat::LimitedPointer, SharerFormat::CoarseVector}) {
        OneSet v(cfgOf(fmt, 64, 2, 4));
        SharerSet &s = v.set;
        std::bitset<64> truth;
        for (int step = 0; step < 500; ++step) {
            NodeId n = static_cast<NodeId>(rng() % 64);
            if (rng() % 3 == 0) {
                s.reset(n);
                truth.reset(n);
            } else {
                s.set(n);
                truth.set(n);
            }
            for (NodeId m = 0; m < 64; ++m) {
                if (truth.test(m)) {
                    ASSERT_TRUE(s.test(m))
                        << "format " << int(fmt) << " lost node "
                        << int(m) << " at step " << step;
                }
            }
        }
    }
}

TEST(SharerSet, MatchesReferenceModelOnRandomOps)
{
    // Differential check of the bit layout against RefSet across word
    // boundaries (63/64/65), partial regions (N % r != 0) and the
    // 512-node ceiling. After every set, reset(n) or full reset the
    // queries must agree, and forEach must yield exactly the nodes
    // test() reports, ascending.
    std::mt19937 rng(12);
    for (SharerFormat fmt :
         {SharerFormat::FullMap, SharerFormat::LimitedPointer,
          SharerFormat::CoarseVector}) {
        for (std::size_t nodes : {1, 2, 8, 63, 64, 65, 128, 512}) {
            for (std::size_t ptrs : {1, 4}) {
                for (std::size_t region : {1, 3, 8}) {
                    const DirConfig c = cfgOf(fmt, nodes, ptrs, region);
                    OneSet v(c);
                    SharerSet &s = v.set;
                    RefSet ref(c);
                    // A small hot pool makes exact limited-pointer
                    // runs (and re-sets of present nodes) common.
                    const std::size_t pool =
                        rng() % 2 ? nodes : std::min<std::size_t>(nodes, 5);
                    for (int step = 0; step < 120; ++step) {
                        const NodeId n =
                            static_cast<NodeId>(rng() % pool);
                        const unsigned op = rng() % 20;
                        if (op == 0) {
                            s.reset();
                            ref.reset();
                        } else if (op < 9) {
                            s.reset(n);
                            ref.reset(n);
                        } else {
                            s.set(n);
                            ref.set(n);
                        }
                        const auto where = ::testing::Message()
                            << "format " << int(fmt) << " nodes "
                            << nodes << " ptrs " << ptrs << " region "
                            << region << " step " << step;
                        std::vector<NodeId> expect;
                        for (NodeId m = 0; m < nodes; ++m) {
                            ASSERT_EQ(s.test(m), ref.test(m))
                                << where << " node " << m;
                            if (ref.test(m))
                                expect.push_back(m);
                        }
                        std::vector<NodeId> seen;
                        s.forEach([&](NodeId m) { seen.push_back(m); });
                        ASSERT_EQ(seen, expect) << where;
                        ASSERT_EQ(s.none(), ref.none()) << where;
                        ASSERT_EQ(s.overflowed(), ref.overflowed())
                            << where;
                        const NodeId k =
                            static_cast<NodeId>(rng() % nodes);
                        bool only_k = !ref.overflowed() &&
                            (fmt == SharerFormat::CoarseVector
                                 ? ref.none()
                                 : std::all_of(expect.begin(),
                                               expect.end(),
                                               [&](NodeId m) {
                                                   return m == k;
                                               }));
                        ASSERT_EQ(s.noneExcept(k), only_k)
                            << where << " except " << k;
                    }
                }
            }
        }
    }
}

TEST(SharerSet, EntryBitsAreOrderSharersNotOrderNodes)
{
    // Full-map grows linearly with the machine; limited-pointer with
    // the log; coarse-vector with nodes/region.
    const std::size_t fm128 =
        cfgOf(SharerFormat::FullMap, 128).entryBits();
    const std::size_t fm512 =
        cfgOf(SharerFormat::FullMap, 512).entryBits();
    const std::size_t lp128 =
        cfgOf(SharerFormat::LimitedPointer, 128, 4).entryBits();
    const std::size_t lp512 =
        cfgOf(SharerFormat::LimitedPointer, 512, 4).entryBits();
    EXPECT_EQ(fm128, 2u * 128 + 8);     // owner: ceil(log2 128)+1
    EXPECT_EQ(fm512, 2u * 512 + 10);
    EXPECT_EQ(lp128, 2u * (4 * 7 + 1) + 8);
    EXPECT_EQ(lp512, 2u * (4 * 9 + 1) + 10);
    EXPECT_LT(lp512, fm128); // 4x the nodes, still far smaller
    EXPECT_EQ(cfgOf(SharerFormat::CoarseVector, 512, 4, 8).entryBits(),
              2u * 64 + 10);
}

TEST(SharerSet, DirectoryModeledStorageCountsLiveEntries)
{
    Directory d(32, 4, cfgOf(SharerFormat::LimitedPointer, 128, 4));
    EXPECT_EQ(d.modeledStorageBits(), 0u);
    d.entry(0);
    d.entry(32);
    d.entry(32); // same block: no new entry
    EXPECT_EQ(d.size(), 2u);
    EXPECT_EQ(d.modeledStorageBits(), 2u * d.config().entryBits());
}

TEST(SharerSet, LimitedPointerRunsBitIdenticalUnderCapacity)
{
    // On the two-node test machine no block ever has more than two
    // sharers, so a 4-pointer directory never overflows and must
    // reproduce the full-map run exactly — every counter, every
    // tick. This is the equivalence that let the sparse formats land
    // without re-recording any baseline.
    Params fm = test::smallParams();
    Params lp = fm;
    lp.dirFormat = SharerFormat::LimitedPointer;
    lp.dirPointers = 4;
    lp.validate();
    for (const char *proto : {"ccnuma", "scoma", "rnuma"}) {
        auto mk = [](const Params &p) {
            return makeHotRemoteReuse(p, 6, 6);
        };
        auto a = mk(fm);
        auto b = mk(lp);
        RunStats sa = runProtocol(fm, proto, *a);
        RunStats sb = runProtocol(lp, proto, *b);
        // The one field allowed to differ is the modeled storage
        // footprint (on this tiny machine the pointer overhead
        // actually exceeds the 2-bit full map; the win is at scale).
        EXPECT_NE(sb.dirBits, sa.dirBits) << proto;
        EXPECT_EQ(sa.dirEntries, sb.dirEntries) << proto;
        RunStats masked = sb;
        masked.dirBits = sa.dirBits;
        EXPECT_TRUE(sa == masked) << proto;
    }
}

TEST(SharerSet, MaxNodesMachineRunsUnderEveryFormat)
{
    // The 512-node ceiling, where every set spans eight words. Each
    // page of the antipodal shift has exactly one remote reader, so
    // limited-pointer stays under capacity and must match full-map
    // bit for bit (masked on the modeled storage); write-shared
    // zipf-serve then overflows limited-pointer to broadcast and
    // aliases coarse regions, and must still conserve its misses.
    const Params fm = manyNodeParams(maxNodes, SharerFormat::FullMap);
    const Params lp =
        manyNodeParams(maxNodes, SharerFormat::LimitedPointer);
    const Params cv = manyNodeParams(maxNodes, SharerFormat::CoarseVector);
    auto shift_fm = makeScalingShift(fm, 1, 2);
    auto shift_lp = makeScalingShift(lp, 1, 2);
    RunStats sa = runProtocol(fm, "ccnuma", *shift_fm);
    RunStats sb = runProtocol(lp, "ccnuma", *shift_lp);
    EXPECT_GT(sa.remoteFetches, 0u);
    EXPECT_LT(sb.dirBits, sa.dirBits);
    RunStats masked = sb;
    masked.dirBits = sa.dirBits;
    EXPECT_TRUE(sa == masked);

    for (const Params *p : {&fm, &lp, &cv}) {
        auto wl = makeWorkload("zipf-serve", *p, 1.0, 1,
                               "pages=8,theta=0.6,write=0.3,requests=6");
        RunStats s = runProtocol(*p, "ccnuma", *wl);
        const auto fmt = int(p->dirFormat);
        EXPECT_GT(s.refs, 0u) << fmt;
        EXPECT_GT(s.invalidationsSent, 0u) << fmt;
        EXPECT_EQ(s.coldMisses + s.coherenceMisses + s.refetches,
                  s.remoteFetches)
            << fmt;
    }
}

TEST(SharerSet, CoarseVectorRunCompletesWithSameWork)
{
    // Coarse-vector may send extra invalidations (it names whole
    // regions) but the computation itself — references, hits, fills
    // — must be unchanged: over-approximation costs traffic, never
    // correctness. On a two-node machine with region size 2 both
    // nodes share one region bit, the maximal aliasing case.
    Params fm = test::smallParams();
    Params cv = fm;
    cv.dirFormat = SharerFormat::CoarseVector;
    cv.dirRegionSize = 2;
    cv.validate();
    auto a = makeProducerConsumer(fm, 4, 6);
    auto b = makeProducerConsumer(cv, 4, 6);
    RunStats sa = runProtocol(fm, "ccnuma", *a);
    RunStats sb = runProtocol(cv, "ccnuma", *b);
    EXPECT_EQ(sa.refs, sb.refs);
    EXPECT_EQ(sa.l1Hits, sb.l1Hits);
    EXPECT_EQ(sa.remoteFetches, sb.remoteFetches);
    EXPECT_GE(sb.invalidationsSent, sa.invalidationsSent);
}

} // namespace rnuma
