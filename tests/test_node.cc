/**
 * @file
 * Node-level tests: on-node MOESI snooping over the bus, the MBus
 * cache-to-cache restriction (owned lines only), and write-upgrade
 * behavior. Exercised through a Machine with hand-built streams.
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "workload/workload.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

/** Build a 4-CPU workload; cpu 0/1 are node 0, cpu 2/3 node 1. */
std::unique_ptr<Workload>
blank()
{
    return std::make_unique<Workload>("node-test", 4);
}

} // namespace

TEST(Node, DirtyLineTransfersCacheToCacheWithinNode)
{
    Params p = test::smallParams();
    auto wl = blank();
    Addr x = 0; // first-touched by cpu 0 -> home node 0
    wl->push(0, Ref::touchOf(x));
    wl->push(0, Ref::mem(x, true, 0)); // cpu0 holds Modified
    wl->pushBarrierAll();
    wl->push(1, Ref::mem(x, false, 0)); // cpu1 reads: M/O supply
    wl->seal();

    Machine m(p, protocolSpec("ccnuma"), *wl);
    RunStats s = m.run();
    EXPECT_GE(s.nodeTransfers, 1u);
}

TEST(Node, CleanRemoteCopiesDoNotTransferOnMBus)
{
    // Read requests to read-only remote blocks that miss in the
    // block cache go home even if another on-node L1 has a clean
    // copy (Section 4) — but here the block cache still holds it,
    // so the second reader hits the block cache, not a peer L1.
    Params p = test::smallParams();
    auto wl = blank();
    Addr x = 0; // touched by cpu 2 -> home node 1, remote to node 0
    wl->push(2, Ref::touchOf(x));
    wl->pushBarrierAll();
    wl->push(0, Ref::mem(x, false, 0));
    wl->pushBarrierAll();
    wl->push(1, Ref::mem(x, false, 0));
    wl->seal();

    Machine m(p, protocolSpec("ccnuma"), *wl);
    RunStats s = m.run();
    EXPECT_EQ(s.nodeTransfers, 0u);
    EXPECT_GE(s.blockCacheHits, 1u);
}

TEST(Node, WriteHitOnSharedLineCountsAsUpgrade)
{
    Params p = test::smallParams();
    auto wl = blank();
    Addr x = 0;
    wl->push(0, Ref::touchOf(x));
    wl->push(0, Ref::mem(x, false, 0)); // read: Shared in L1
    wl->push(0, Ref::mem(x, true, 0));  // write same block: upgrade
    wl->seal();

    Machine m(p, protocolSpec("ccnuma"), *wl);
    RunStats s = m.run();
    EXPECT_GE(s.upgrades, 1u);
}

TEST(Node, WriteInvalidatesPeerL1OnSameNode)
{
    Params p = test::smallParams();
    auto wl = blank();
    Addr x = 0;
    wl->push(0, Ref::touchOf(x));
    wl->push(0, Ref::mem(x, false, 0));
    wl->pushBarrierAll();
    wl->push(1, Ref::mem(x, false, 0)); // both L1s share the line
    wl->pushBarrierAll();
    wl->push(1, Ref::mem(x, true, 0));  // cpu1 writes
    wl->pushBarrierAll();
    wl->push(0, Ref::mem(x, false, 0)); // cpu0 must re-acquire
    wl->seal();

    Machine m(p, protocolSpec("ccnuma"), *wl);
    RunStats s = m.run();
    // cpu0's final read cannot be an L1 hit: its copy was
    // invalidated. It is served by the on-node dirty supplier.
    EXPECT_GE(s.nodeTransfers, 1u);
}

TEST(Node, L1HitsAreFree)
{
    Params p = test::smallParams();
    auto wl = blank();
    Addr x = 0;
    wl->push(0, Ref::touchOf(x));
    wl->push(0, Ref::mem(x, true, 0));
    for (int i = 0; i < 50; ++i)
        wl->push(0, Ref::mem(x, true, 0));
    wl->seal();

    Machine m(p, protocolSpec("ccnuma"), *wl);
    RunStats s = m.run();
    EXPECT_GE(s.l1Hits, 50u);
    EXPECT_EQ(s.l1Misses, 1u);
}

TEST(Node, FillLeavesASiblingL1LineInTheSameSetValid)
{
    // x and y map to the same L1 set (one L1 size apart). cpu 1
    // holds x; cpu 0's fill of y must not evict it: the node's L1s
    // are banks of one store but separate caches.
    Params p = test::smallParams();
    auto wl = blank();
    Addr x = 0;
    Addr y = x + p.l1Size;
    wl->push(0, Ref::touchOf(x));
    wl->push(0, Ref::touchOf(y));
    wl->pushBarrierAll();
    wl->push(1, Ref::mem(x, false, 0));
    wl->pushBarrierAll();
    wl->push(0, Ref::mem(y, false, 0));
    wl->seal();

    Machine m(p, protocolSpec("ccnuma"), *wl);
    m.run();
    Cache &l1s = m.node(0).l1s();
    ASSERT_NE(l1s.find(x, 1), nullptr);
    ASSERT_NE(l1s.find(y, 0), nullptr);
    EXPECT_EQ(l1s.find(x, 0), nullptr);
    EXPECT_EQ(l1s.find(y, 1), nullptr);
}

TEST(Node, InvalidateAllReportsASiblingL1sModifiedCopy)
{
    // A home block written only by cpu 1: the node's sole copy is
    // Modified in cpu 1's L1 (cpu 0 only placed the page).
    Params p = test::smallParams();
    auto wl = blank();
    Addr x = 0;
    wl->push(0, Ref::touchOf(x));
    wl->pushBarrierAll();
    wl->push(1, Ref::mem(x, true, 0));
    wl->seal();

    Machine m(p, protocolSpec("ccnuma"), *wl);
    m.run();
    Cache &l1s = m.node(0).l1s();
    EXPECT_EQ(l1s.find(x, 0), nullptr);
    ASSERT_NE(l1s.find(x, 1), nullptr);
    EXPECT_EQ(l1s.find(x, 1)->state, CacheState::Modified);
    EXPECT_TRUE(m.node(0).invalidateAll(x));
    EXPECT_EQ(l1s.find(x, 1), nullptr);
    EXPECT_FALSE(m.node(0).invalidateAll(x));
}

TEST(Node, DirtyL1VictimWritesBackThroughRad)
{
    // Fill the tiny L1 with dirty remote blocks past capacity; the
    // victims must land in the block cache (inclusion for RW).
    Params p = test::smallParams(); // 512 B L1 = 16 lines
    auto wl = blank();
    Addr base = 0;
    wl->push(2, Ref::touchOf(base));
    wl->push(2, Ref::touchOf(base + p.pageSize));
    wl->pushBarrierAll();
    // 32 distinct blocks, all written: 2x the L1 capacity.
    for (std::size_t i = 0; i < 32; ++i)
        wl->push(0, Ref::mem(base + i * p.blockSize, true, 0));
    wl->seal();

    Machine m(p, protocolSpec("ccnuma"), *wl);
    RunStats s = m.run();
    // All blocks are writable on node 0; the block cache (32 lines)
    // holds every victim, so no voluntary writeback leaves the node.
    EXPECT_EQ(s.remoteFetches, 32u);
    EXPECT_EQ(s.writebacks, 0u);
}

} // namespace rnuma
