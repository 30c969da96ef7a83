/**
 * @file
 * Tests for the single-run helpers: runProtocol, the
 * infinite-block-cache baseline, and the one normalization rule (NaN
 * on a zero-tick baseline, not a panic). N-way comparisons are driver
 * sweeps, tested in test_driver.cc and test_smoke_apps.cc.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/runner.hh"
#include "workload/micro.hh"

#include "test_util.hh"

namespace rnuma
{

TEST(Runner, BaselineUsesInfiniteBlockCache)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 8, 3);
    RunStats base = runInfiniteBaseline(p, *wl);
    EXPECT_EQ(base.refetches, 0u);
    // The baseline is the finite CC-NUMA machine with the block cache
    // made infinite, so it never loses to it.
    RunStats finite = runProtocol(p, "ccnuma", *wl);
    EXPECT_EQ(base.refs, finite.refs);
    EXPECT_LE(base.ticks, finite.ticks);
}

TEST(Runner, ResetsWorkloadBetweenRuns)
{
    Params p = test::smallParams();
    auto wl = makePrivateLoop(p, 1, 2);
    RunStats a = runProtocol(p, "ccnuma", *wl);
    // Without the reset inside runProtocol the second run would see
    // exhausted streams and do nothing.
    RunStats b = runProtocol(p, "ccnuma", *wl);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_GT(b.refs, 0u);
}

TEST(Runner, ZeroTickBaselineIsNaNNotAPanic)
{
    // Degenerate one-reference workloads at tiny scales can in
    // principle produce a zero-tick baseline; normalized values must
    // be defined (NaN: a flagged cell) instead of tripping an
    // assertion mid-figure.
    EXPECT_TRUE(std::isnan(normalizedTime(5, 0)));
    EXPECT_TRUE(std::isnan(normalizedTime(0, 0)));
    EXPECT_DOUBLE_EQ(normalizedTime(6, 4), 1.5);
}

} // namespace rnuma
