/**
 * @file
 * Tests for the protocol registry's domain content
 * (proto/registry.hh): the built-ins in order, name -> spec -> Rad
 * round-trips through a real Machine, bit-identity of running by
 * name against running by spec, Figure 8's
 * staticThresholdSpec variants against the pre-registry "params
 * hack" equivalent, and end-to-end runs of the new policy
 * protocols. The registry mechanism itself (lookup, duplicates,
 * concurrency) is tested in test_registry.cc.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/analytic_model.hh"
#include "proto/registry.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

/** A reuse-heavy pattern on the tiny machine: more remote pages
 *  than page-cache frames, so relocations and evictions happen. */
std::unique_ptr<Workload>
reuseWorkload(const Params &p)
{
    return makeHotRemoteReuse(p, 12, 6);
}

} // namespace

TEST(ProtocolRegistry, HasTheBuiltinsInOrder)
{
    auto all = ProtocolRegistry::global().all();
    ASSERT_GE(all.size(), 6u);
    EXPECT_EQ(all[0]->id, "ccnuma");
    EXPECT_EQ(all[1]->id, "scoma");
    EXPECT_EQ(all[2]->id, "rnuma");
    EXPECT_EQ(all[3]->id, "rnuma-hysteresis");
    EXPECT_EQ(all[4]->id, "rnuma-adaptive");
    EXPECT_EQ(all[5]->id, "rnuma-model");
    for (const ProtocolSpec *s : all) {
        EXPECT_TRUE(s->valid()) << s->id;
        EXPECT_FALSE(s->displayName.empty()) << s->id;
        EXPECT_FALSE(s->description.empty()) << s->id;
    }
}

TEST(ProtocolRegistry, PaperSystemsKeepTheirDisplayNames)
{
    // The tables label the three paper systems by display name. A
    // display name is only a label: looking one up is fatal, as for
    // any name that is not an id.
    EXPECT_EQ(protocolSpec("ccnuma").displayName, "CC-NUMA");
    EXPECT_EQ(protocolSpec("scoma").displayName, "S-COMA");
    EXPECT_EQ(protocolSpec("rnuma").displayName, "R-NUMA");
    for (const char *id : {"ccnuma", "scoma", "rnuma"}) {
        const std::string display = protocolSpec(id).displayName;
        EXPECT_EQ(findProtocolSpec(display), nullptr) << display;
        try {
            protocolSpec(display);
            ADD_FAILURE() << display << " resolved";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "unknown protocol '" + display + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ProtocolRegistry, NameToSpecToRadRoundTrip)
{
    // Running a machine by registry name is bit-identical to running
    // it from the spec directly, for each paper system.
    Params p = test::smallParams();
    for (const char *name : {"ccnuma", "scoma", "rnuma"}) {
        auto wl_a = reuseWorkload(p);
        auto wl_b = reuseWorkload(p);
        RunStats by_name = runProtocol(p, name, *wl_a);
        Machine m(p, protocolSpec(name), *wl_b);
        RunStats by_spec = m.run();
        EXPECT_EQ(by_name, by_spec) << name;
        EXPECT_GT(by_name.refs, 0u);
    }
}

TEST(ProtocolRegistry, MachineReportsItsProtocolId)
{
    Params p = test::smallParams();
    auto wl = reuseWorkload(p);
    Machine m(p, protocolSpec("rnuma-adaptive"), *wl);
    EXPECT_EQ(m.protocolId(), "rnuma-adaptive");
}

TEST(ProtocolRegistry, StaticThresholdSpecMatchesTheParamsHack)
{
    // Figure 8's policy sweep replaced mutating
    // Params::relocationThreshold. Both roads must lead to the same
    // simulated machine, tick for tick.
    Params base = test::smallParams();
    for (std::size_t T : {2u, 4u, 8u}) {
        Params hacked = base;
        hacked.relocationThreshold = T;
        auto wl_a = reuseWorkload(base);
        auto wl_b = reuseWorkload(base);
        RunStats via_spec =
            runProtocol(base, staticThresholdSpec(T), *wl_a);
        RunStats via_params =
            runProtocol(hacked, "rnuma", *wl_b);
        EXPECT_EQ(via_spec, via_params) << "T=" << T;
    }
}

TEST(ProtocolRegistry, NewPoliciesRunEndToEndAndDeterministically)
{
    Params p = test::smallParams();
    for (const char *name : {"rnuma-hysteresis", "rnuma-adaptive"}) {
        auto wl_a = reuseWorkload(p);
        auto wl_b = reuseWorkload(p);
        RunStats a = runProtocol(p, std::string(name), *wl_a);
        RunStats b = runProtocol(p, std::string(name), *wl_b);
        EXPECT_EQ(a, b) << name;
        EXPECT_GT(a.refs, 0u) << name;
        EXPECT_GT(a.relocations, 0u) << name;
    }
}

TEST(ProtocolRegistry, HysteresisRelocatesNoMoreThanStatic)
{
    // On an eviction-heavy reuse pattern (12 remote pages, 4
    // page-cache frames) pages relocate, fall out, and re-qualify;
    // hysteresis raises the re-entry bar, so it can only relocate
    // less often than the static rule.
    Params p = test::smallParams();
    auto wl_s = reuseWorkload(p);
    auto wl_h = reuseWorkload(p);
    RunStats stat = runProtocol(p, std::string("rnuma"), *wl_s);
    RunStats hyst =
        runProtocol(p, std::string("rnuma-hysteresis"), *wl_h);
    EXPECT_GT(stat.relocations, 0u);
    EXPECT_LE(hyst.relocations, stat.relocations);
    EXPECT_EQ(stat.refs, hyst.refs); // same workload either way
}

TEST(ProtocolRegistry, ModelPolicyIsSeededFromTheAnalyticOptimum)
{
    // The registry-enabled one-file experiment: rnuma-model's static
    // threshold comes from AnalyticModel::optimalThreshold() for the
    // Params the machine actually runs, not from
    // Params::relocationThreshold.
    Params p = test::smallParams();
    const ProtocolSpec &spec = protocolSpec("rnuma-model");
    ASSERT_TRUE(spec.makePolicy != nullptr);
    auto policy = spec.makePolicy(p);
    AnalyticModel model(
        ModelParams::fromSystem(p, p.blocksPerPage() / 2));
    auto expected = static_cast<std::size_t>(
        std::llround(model.optimalThreshold()));
    if (expected < 1)
        expected = 1;
    auto *st = dynamic_cast<StaticThresholdPolicy *>(policy.get());
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->threshold(), expected);

    // And it runs end to end, deterministically, like any builtin.
    auto wl_a = reuseWorkload(p);
    auto wl_b = reuseWorkload(p);
    RunStats a = runProtocol(p, std::string("rnuma-model"), *wl_a);
    RunStats b = runProtocol(p, std::string("rnuma-model"), *wl_b);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.refs, 0u);
}

TEST(ProtocolRegistry, HybridSpecComposesCustomPolicies)
{
    // The extension point a downstream protocol author uses: an
    // unregistered spec with a custom policy wiring, runnable
    // directly.
    ProtocolSpec custom = hybridSpec(
        "rnuma-eager", "R-NUMA(eager)", "relocates on first refetch",
        [](const Params &) {
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<StaticThresholdPolicy>(1));
        });
    Params p = test::smallParams();
    auto wl_eager = reuseWorkload(p);
    auto wl_base = reuseWorkload(p);
    RunStats eager = runProtocol(p, custom, *wl_eager);
    RunStats base = runProtocol(p, std::string("rnuma"), *wl_base);
    // Threshold 1 relocates at the very first refetch, so it can
    // never relocate less than the threshold-4 rule here.
    EXPECT_GE(eager.relocations, base.relocations);
    EXPECT_GT(eager.relocations, 0u);
}

} // namespace rnuma
