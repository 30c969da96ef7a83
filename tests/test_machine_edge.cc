/**
 * @file
 * Edge-case tests for the Machine's event engine: barrier lifecycles
 * with finishing CPUs, the deferred-miss (causal ordering) path, and
 * timing invariants under contention.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>

#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"
#include "workload/workload.hh"

#include "test_util.hh"

namespace rnuma
{

TEST(MachineEdge, EmptyWorkloadFinishesAtTickZero)
{
    Params p = test::smallParams();
    Workload wl("empty", p.numCpus());
    wl.seal();
    Machine m(p, protocolSpec("rnuma"), wl);
    RunStats s = m.run();
    EXPECT_EQ(s.ticks, 0u);
    EXPECT_EQ(s.refs, 0u);
}

TEST(MachineEdge, BarrierOnlyWorkload)
{
    Params p = test::smallParams();
    Workload wl("barriers", p.numCpus());
    for (int i = 0; i < 5; ++i)
        wl.pushBarrierAll();
    wl.seal();
    Machine m(p, protocolSpec("ccnuma"), wl);
    RunStats s = m.run();
    EXPECT_EQ(s.barriers, 5u);
    // Each barrier costs the release overhead.
    EXPECT_EQ(s.ticks, 5u * p.barrierCost);
}

TEST(MachineEdge, CpuFinishingEarlyDoesNotDeadlockBarriers)
{
    // CPU 3 ends immediately; the others barrier twice. The barrier
    // must release with only the active CPUs.
    Params p = test::smallParams();
    Workload wl("early-exit", p.numCpus());
    for (CpuId c = 0; c < 3; ++c) {
        wl.push(c, Ref::barrier());
        wl.push(c, Ref::barrier());
    }
    wl.seal();
    Machine m(p, protocolSpec("ccnuma"), wl);
    RunStats s = m.run();
    EXPECT_EQ(s.barriers, 2u);
}

TEST(MachineEdge, ThinkTimeAccumulatesWithoutMemoryTraffic)
{
    Params p = test::smallParams();
    Workload wl("think", p.numCpus());
    // One cold access then 100 thinks worth of L1 hits.
    wl.push(0, Ref::touchOf(0));
    wl.push(0, Ref::mem(0, false, 10));
    for (int i = 0; i < 100; ++i)
        wl.push(0, Ref::mem(0, false, 10));
    wl.seal();
    Machine m(p, protocolSpec("ccnuma"), wl);
    RunStats s = m.run();
    // 101 refs x 10 think + one local fill (69 uncontended).
    EXPECT_GE(s.ticks, 1010u + p.localFill());
    EXPECT_EQ(s.l1Hits, 100u);
}

TEST(MachineEdge, DeferredMissesPreserveDeterminism)
{
    // Heavy multi-cpu contention exercises the pending-miss path;
    // two identical runs must agree exactly.
    Params p = test::smallParams();
    auto wl = makeRwSharing(p, 200);
    RunStats a = runProtocol(p, "rnuma", *wl);
    RunStats b = runProtocol(p, "rnuma", *wl);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.invalidationsSent, b.invalidationsSent);
    EXPECT_EQ(a.busWait, b.busWait);
    EXPECT_EQ(a.niWait, b.niWait);
}

TEST(MachineEdge, ContentionNeverReducesExecutionTime)
{
    // Doubling the per-transaction bus occupancy cannot speed the
    // machine up.
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 4, 3);
    RunStats base = runProtocol(p, "ccnuma", *wl);
    Params slow = p;
    slow.busOccupancy *= 4;
    RunStats s = runProtocol(slow, "ccnuma", *wl);
    EXPECT_GE(s.ticks, base.ticks);
}

TEST(MachineEdge, SlowerNetworkSlowsRemoteTraffic)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 4, 3);
    RunStats base = runProtocol(p, "ccnuma", *wl);
    Params slow = p;
    slow.netLatency *= 4;
    RunStats s = runProtocol(slow, "ccnuma", *wl);
    EXPECT_GT(s.ticks, base.ticks);
}

TEST(MachineEdge, StatsTickEqualsSlowestCpu)
{
    Params p = test::smallParams();
    // CPU 0 does much more work than the rest.
    Workload wl("skew", p.numCpus());
    wl.push(0, Ref::touchOf(0));
    for (int i = 0; i < 200; ++i)
        wl.push(0, Ref::mem((i % 64) * 32, i % 2 == 0, 5));
    wl.push(1, Ref::mem(0, false, 1)); // tiny stream
    wl.seal();
    Machine m(p, protocolSpec("ccnuma"), wl);
    RunStats s = m.run();
    EXPECT_GT(s.ticks, 200u * 5u);
}

TEST(MachineEdge, AddressPastThePageLimitIsFatal)
{
    // A hand-built workload (like a trace recorded without an
    // addrLimit) is not audited against any bound, so the
    // page-indexed tables' cap is what stops a stray address: a named
    // fatal error, not a bad_alloc or an exhausted host. 2^40 fits a
    // Ref's 44-bit address but is page 2^31 at this 512-byte page.
    Params p = test::smallParams();
    Workload wl("far", p.numCpus());
    wl.push(0, Ref::mem(Addr{1} << 40, false, 1));
    wl.seal();
    Machine m(p, protocolSpec("rnuma"), wl);
    try {
        m.run();
        ADD_FAILURE() << "an address at 2^40 was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos)
            << e.what();
    }
}

/**
 * A Machine reads a const Workload through its own cursors: runs over
 * one workload, back to back or concurrent, see the same streams and
 * leave the workload's next() cursor where it was.
 */
TEST(SharedWorkload, BackToBackAndConcurrentRunsMatch)
{
    Params p = test::smallParams();
    std::unique_ptr<Workload> wl = makeHotRemoteReuse(p, 6, 3);
    wl->next(0);
    const Workload &shared = *wl;
    const RunStats first = Machine(p, protocolSpec("rnuma"), shared).run();
    EXPECT_GT(first.relocations, 0u);
    EXPECT_TRUE(Machine(p, protocolSpec("rnuma"), shared).run() == first);
    RunStats got[2];
    std::thread t0([&] {
        got[0] = Machine(p, protocolSpec("rnuma"), shared).run();
    });
    std::thread t1([&] {
        got[1] = Machine(p, protocolSpec("rnuma"), shared).run();
    });
    t0.join();
    t1.join();
    EXPECT_TRUE(got[0] == first);
    EXPECT_TRUE(got[1] == first);
    EXPECT_EQ(&wl->next(0), &wl->at(0, 1));
}

TEST(SharedWorkload, UnsealedWorkloadIsFatalAndNamed)
{
    Params p = test::smallParams();
    Workload wl("half-built", p.numCpus());
    wl.push(0, Ref::mem(0, false, 1));
    try {
        Machine m(p, protocolSpec("ccnuma"), wl);
        FAIL() << "a machine accepted an unsealed workload";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'half-built'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("not sealed"), std::string::npos) << msg;
    }
}

/** Sweep: every protocol on every microbenchmark, no panics. */
class MicroByProtocol
    : public ::testing::TestWithParam<std::tuple<int, std::string>>
{
};

TEST_P(MicroByProtocol, RunsClean)
{
    auto [which, proto] = GetParam();
    Params p = test::smallParams();
    std::unique_ptr<Workload> wl;
    switch (which) {
      case 0: wl = makePrivateLoop(p, 2, 2); break;
      case 1: wl = makeHotRemoteReuse(p, 6, 3); break;
      case 2: wl = makeProducerConsumer(p, 3, 3); break;
      case 3: wl = makeAdversary(p, 6, 5); break;
      default: wl = makeRwSharing(p, 30); break;
    }
    RunStats s = runProtocol(p, proto, *wl);
    EXPECT_EQ(s.coldMisses + s.coherenceMisses + s.refetches,
              s.remoteFetches);
    EXPECT_EQ(s.refs, s.l1Hits + s.l1Misses + s.upgrades);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MicroByProtocol,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(std::string("ccnuma"),
                                         std::string("scoma"),
                                         std::string("rnuma"))));

} // namespace rnuma
