/** @file Structural tests for the microbenchmark workloads. */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "workload/micro.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

/** Count entries of one kind in a cpu's stream. */
std::size_t
countKind(const VectorWorkload &wl, CpuId c, RefKind k)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < wl.size(c); ++i)
        if (wl.at(c, i).kind == k)
            ++n;
    return n;
}

/** Every cpu must see the same number of barriers (no deadlock). */
void
expectAlignedBarriers(const VectorWorkload &wl)
{
    std::size_t expected = countKind(wl, 0, RefKind::Barrier);
    for (CpuId c = 1; c < wl.numCpus(); ++c)
        EXPECT_EQ(countKind(wl, c, RefKind::Barrier), expected)
            << "cpu " << c << " barrier count mismatch";
}

} // namespace

TEST(MicroWorkloads, AllHaveAlignedBarriers)
{
    Params p = test::smallParams();
    expectAlignedBarriers(*makePrivateLoop(p, 2, 2));
    expectAlignedBarriers(*makeHotRemoteReuse(p, 4, 2));
    expectAlignedBarriers(*makeEvictionStorm(p, 6, 2));
    expectAlignedBarriers(*makeProducerConsumer(p, 2, 3));
    expectAlignedBarriers(*makeAdversary(p, 4, 5));
    expectAlignedBarriers(*makeRwSharing(p, 10));
}

TEST(MicroWorkloads, EvictionStormMustOverflowThePageCache)
{
    // The whole point of the pattern is a reuse set wider than the
    // page-cache frame budget; a configuration where it fits is a
    // silent regression back into hot reuse, so the generator
    // refuses it.
    Params p = test::smallParams(); // 4 frames
    EXPECT_THROW(makeEvictionStorm(p, 4, 2), std::logic_error);
    EXPECT_THROW(makeEvictionStorm(p, 3, 2), std::logic_error);
    auto wl = makeEvictionStorm(p, 5, 2);
    EXPECT_GT(wl->memRefCount(), 0u);
}

TEST(MicroWorkloads, EvictionStormCausesEvictionPingPong)
{
    // On the small machine the pattern must actually produce the
    // relocate/evict churn it exists for: relocations exceeding the
    // page count prove pages re-entered the page cache after being
    // evicted.
    Params p = test::smallParams();
    auto wl = makeEvictionStorm(p, 8, 6);
    RunStats s = runProtocol(p, "rnuma", *wl);
    EXPECT_GT(s.relocations, 8u);
}

TEST(MicroWorkloads, PrivateLoopKeepsCpusApart)
{
    Params p = test::smallParams();
    auto wl = makePrivateLoop(p, 2, 1);
    // Each cpu's addresses must be disjoint: check cpu0 vs cpu1.
    Addr max0 = 0, min1 = ~Addr(0);
    for (std::size_t i = 0; i < wl->size(0); ++i) {
        const Ref &r = wl->at(0, i);
        if (r.kind == RefKind::Mem && r.addr > max0)
            max0 = r.addr;
    }
    for (std::size_t i = 0; i < wl->size(1); ++i) {
        const Ref &r = wl->at(1, i);
        if (r.kind == RefKind::Mem && r.addr < min1)
            min1 = r.addr;
    }
    EXPECT_LT(max0, min1);
}

TEST(MicroWorkloads, HotReuseReaderIsNodeZeroOwnerIsNodeOne)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 2, 2);
    // All InitTouches belong to cpu 2 (first cpu of node 1).
    EXPECT_GT(countKind(*wl, 2, RefKind::InitTouch), 0u);
    EXPECT_EQ(countKind(*wl, 0, RefKind::InitTouch), 0u);
    // All memory refs belong to cpu 0 and are reads.
    EXPECT_GT(countKind(*wl, 0, RefKind::Mem), 0u);
    for (std::size_t i = 0; i < wl->size(0); ++i) {
        if (wl->at(0, i).kind == RefKind::Mem) {
            ASSERT_FALSE(wl->at(0, i).write);
        }
    }
}

TEST(MicroWorkloads, AdversaryTouchCountMatches)
{
    Params p = test::smallParams();
    std::size_t touches = 5;
    auto wl = makeAdversary(p, 4, touches); // 2 pairs
    // Victim (cpu 0) does 2 reads per touch per pair.
    EXPECT_EQ(countKind(*wl, 0, RefKind::Mem), 2u * 2u * touches);
}

TEST(MicroWorkloads, AdversaryBlocksConflictInAllCaches)
{
    Params p = test::smallParams();
    auto wl = makeAdversary(p, 2, 3);
    // Collect the two distinct addresses the victim alternates over.
    Addr a = invalidAddr, b = invalidAddr;
    for (std::size_t i = 0; i < wl->size(0); ++i) {
        const Ref &r = wl->at(0, i);
        if (r.kind != RefKind::Mem)
            continue;
        if (a == invalidAddr)
            a = r.addr;
        else if (r.addr != a && b == invalidAddr)
            b = r.addr;
    }
    ASSERT_NE(a, invalidAddr);
    ASSERT_NE(b, invalidAddr);
    auto set_of = [&](std::size_t cache_bytes, Addr x) {
        return (x / p.blockSize) % (cache_bytes / p.blockSize);
    };
    EXPECT_EQ(set_of(p.l1Size, a), set_of(p.l1Size, b));
    EXPECT_EQ(set_of(p.blockCacheSize, a),
              set_of(p.blockCacheSize, b));
    EXPECT_EQ(set_of(p.rnumaBlockCacheSize, a),
              set_of(p.rnumaBlockCacheSize, b));
}

TEST(MicroWorkloads, RwSharingEveryCpuReadsAndWrites)
{
    Params p = test::smallParams();
    auto wl = makeRwSharing(p, 8);
    for (CpuId c = 0; c < wl->numCpus(); ++c) {
        std::size_t reads = 0, writes = 0;
        for (std::size_t i = 0; i < wl->size(c); ++i) {
            const Ref &r = wl->at(c, i);
            if (r.kind != RefKind::Mem)
                continue;
            (r.write ? writes : reads)++;
        }
        EXPECT_EQ(reads, 8u);
        EXPECT_EQ(writes, 8u);
    }
}

} // namespace rnuma
