/**
 * @file
 * Integration tests: every Table 3 application generator runs to
 * completion on the paper's full machine under every protocol, with
 * conserved miss classification and bit-identical determinism.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "workload/registry.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

constexpr double testScale = 0.12; // small inputs for CI speed

} // namespace

class AppIntegration : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AppIntegration, RunsUnderEveryProtocol)
{
    Params p = test::paperParams();
    auto wl = makeWorkload(GetParam(), p, testScale);
    ASSERT_GT(wl->totalRefs(), 0u);

    for (std::string proto : {"ccnuma", "scoma", "rnuma"}) {
        RunStats s = runProtocol(p, proto, *wl);
        EXPECT_GT(s.ticks, 0u) << proto;
        EXPECT_GT(s.refs, 0u) << proto;
        // Miss-kind conservation.
        EXPECT_EQ(s.coldMisses + s.coherenceMisses + s.refetches,
                  s.remoteFetches)
            << proto;
        // Only the page-cache protocols perform page-cache work.
        if (proto == "ccnuma") {
            EXPECT_EQ(s.scomaAllocations, 0u);
            EXPECT_EQ(s.pageCacheHits, 0u);
        }
        if (proto == "scoma") {
            EXPECT_EQ(s.relocations, 0u);
        }
    }
}

TEST_P(AppIntegration, DeterministicTiming)
{
    Params p = test::paperParams();
    auto wl = makeWorkload(GetParam(), p, testScale);
    RunStats a = runProtocol(p, "rnuma", *wl);
    RunStats b = runProtocol(p, "rnuma", *wl);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.remoteFetches, b.remoteFetches);
    EXPECT_EQ(a.relocations, b.relocations);
}

TEST_P(AppIntegration, SeedChangesStreamButStaysValid)
{
    Params p = test::paperParams();
    auto w1 = makeWorkload(GetParam(), p, testScale, /*seed=*/1);
    auto w2 = makeWorkload(GetParam(), p, testScale, /*seed=*/2);
    // Same structure (barrier/End counts), possibly different refs.
    EXPECT_EQ(w1->numCpus(), w2->numCpus());
    RunStats s = runProtocol(p, "rnuma", *w2);
    EXPECT_GT(s.refs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppIntegration,
    ::testing::Values("barnes", "cholesky", "em3d", "fft", "fmm",
                      "lu", "moldyn", "ocean", "radix", "raytrace"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Registry, NamesMatchTable3)
{
    const std::vector<std::string> names = workloadIds("app");
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "barnes");
    EXPECT_EQ(names.back(), "raytrace");
    EXPECT_EQ(workloadSpec("radix").input, "1M integers, radix 1024");
    EXPECT_EQ(workloadSpec("em3d").description,
              "3-D electromagnetic wave propagation");
}

TEST(Registry, UnknownNameIsFatal)
{
    Params p = test::paperParams();
    EXPECT_THROW(makeWorkload("no-such-app", p, 0.1),
                 std::runtime_error);
}

} // namespace rnuma
