/**
 * @file
 * Tests for the figure registry (src/driver/figures): the registered
 * figures and the shapes of their lazily built sweeps, the fixed
 * protocol and network selections, the policy separation at the CI
 * figure-pipeline scale, verified runs of the micro and Table 2
 * figures, and the extension figures' renderer-enforced invariants
 * (on hand-built runs). A test binary of its own, so ctest runs it
 * beside the sweep-driver suites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "driver/figures.hh"
#include "driver/sweep.hh"
#include "driver/sweep_runner.hh"
#include "proto/registry.hh"

namespace rnuma::driver
{

namespace
{

constexpr double testScale = 0.05;

/**
 * A hand-built result cell carrying only what the extension
 * renderers read. As in Sweep::addComparison rows, @p config is the
 * protocol id, and the "baseline" column runs ccnuma.
 */
CellResult
fakeCell(const std::string &app, const std::string &config, Tick ticks,
         std::uint64_t relocations = 0)
{
    CellResult c;
    c.app = app;
    c.config = config;
    c.protocol = config == "baseline" ? "ccnuma" : config;
    c.stats.ticks = ticks;
    c.stats.relocations = relocations;
    return c;
}

/** Render @p cells through @p figure's spec; returns its status. */
int
renderCells(const char *figure, std::vector<CellResult> cells,
            std::string &out)
{
    FigureRun run;
    run.name = figure;
    run.result.cells = std::move(cells);
    std::ostringstream os;
    int status = renderFigure(*findFigure(figure), run, os);
    out = os.str();
    return status;
}

} // namespace

TEST(FigureRegistry, HasAllFourteenFiguresWithUniqueNames)
{
    const auto &specs = figureSpecs();
    EXPECT_EQ(specs.size(), 14u);
    for (const FigureSpec &a : specs) {
        std::size_t count = 0;
        for (const FigureSpec &b : specs)
            if (std::string(a.name) == b.name)
                count++;
        EXPECT_EQ(count, 1u) << a.name;
        EXPECT_EQ(findFigure(a.name), &a);
    }
    EXPECT_EQ(findFigure("no-such-figure"), nullptr);
}

TEST(FigureRegistry, SweepsBuildLazilyWithExpectedShapes)
{
    // Building a sweep generates no workloads, so even full-figure
    // sweeps are cheap to enumerate here.
    EXPECT_EQ(findFigure("fig6")->build(testScale).size(), 40u);
    EXPECT_EQ(findFigure("fig7")->build(testScale).size(), 60u);
    EXPECT_EQ(findFigure("fig8")->build(testScale).size(), 40u);
    EXPECT_EQ(findFigure("fig9")->build(testScale).size(), 50u);
    EXPECT_EQ(findFigure("fig5")->build(testScale).size(), 10u);
    EXPECT_EQ(findFigure("table4")->build(testScale).size(), 30u);
    EXPECT_EQ(findFigure("table2")->build(testScale).size(), 0u);
    EXPECT_EQ(findFigure("eq3")->build(testScale).size(), 4u);
    EXPECT_EQ(findFigure("ablation")->build(testScale).size(), 30u);
    EXPECT_EQ(findFigure("micro")->build(testScale).size(), 16u);
    // policies: two patterns x (one baseline + one cell per
    // registered protocol).
    EXPECT_EQ(findFigure("policies")->build(testScale).size(),
              2u * (1u + ProtocolRegistry::global().size()));
}

TEST(FigureRegistry, FixedSelectionsHaveTheirShapes)
{
    // policies: each of its two rows is a baseline plus one cell per
    // registered protocol, in registration order.
    Sweep policies = findFigure("policies")->build(testScale);
    const auto protos = ProtocolRegistry::global().all();
    const std::size_t perRow = 1 + protos.size();
    ASSERT_EQ(policies.size(), 2 * perRow);
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const Cell &c = policies.cells()[i];
        EXPECT_EQ(c.app, i < perRow ? "hot-reuse" : "evict-storm");
        const std::size_t col = i % perRow;
        EXPECT_EQ(c.config, col == 0 ? "baseline" : protos[col - 1]->id)
            << c.app << " column " << col;
    }

    // scaling: five node counts x {constant, mesh-2d} x two
    // directory formats, all under R-NUMA.
    Sweep scaling = findFigure("scaling")->build(testScale);
    ASSERT_EQ(scaling.size(), 5u * 2u * 2u);
    std::size_t i = 0;
    for (std::size_t nodes : {8, 16, 32, 64, 128}) {
        for (const char *net : {"constant", "mesh-2d"}) {
            for (const char *dir : {"full-map", "limited-pointer-4"}) {
                const Cell &c = scaling.cells()[i++];
                EXPECT_EQ(c.config, "n" + std::to_string(nodes) + "/" +
                                        net + "/" + dir);
                EXPECT_EQ(c.params.numNodes, nodes) << c.config;
                EXPECT_EQ(c.params.networkModel, net) << c.config;
                EXPECT_EQ(c.proto.id, "rnuma") << c.config;
            }
        }
    }
}

TEST(FigureRegistry, EvictionStormSeparatesThePoliciesAtCiScale)
{
    // Regression for the policy-tie bug: at CI scale (0.1) the old
    // single hot-reuse microworkload fit the caches, so every
    // relocation policy produced identical runs. The eviction-heavy
    // pattern must keep a strict static / adaptive / hysteresis
    // ordering — static ping-pongs the most relocations, the
    // escalating adaptive rule fewer, hysteresis (4T re-entry) the
    // fewest, and every pair stays distinct in both relocation
    // count and simulated time.
    //
    // Only the baselines and the three policies compared here run,
    // not every registered protocol, so the test stays short.
    const FigureSpec *spec = findFigure("policies");
    ASSERT_NE(spec, nullptr);
    const std::vector<std::string> compared = {
        "baseline", "rnuma", "rnuma-hysteresis", "rnuma-adaptive"};
    const Sweep full = spec->build(0.1); // the CI figure-pipeline scale
    Sweep sweep("policies");
    for (const Cell &c : full.cells()) {
        if (std::find(compared.begin(), compared.end(), c.config) !=
            compared.end())
            sweep.add(c);
    }
    ASSERT_EQ(sweep.size(), 2 * compared.size());
    SweepRunner runner(0);
    FigureRun run;
    run.name = spec->name;
    run.result = runner.run(sweep);

    const RunStats &stat =
        run.result.at("evict-storm", "rnuma").stats;
    const RunStats &hyst =
        run.result.at("evict-storm", "rnuma-hysteresis").stats;
    const RunStats &adapt =
        run.result.at("evict-storm", "rnuma-adaptive").stats;
    EXPECT_GT(stat.relocations, adapt.relocations);
    EXPECT_GT(adapt.relocations, hyst.relocations);
    EXPECT_GT(hyst.relocations, 0u);
    EXPECT_GT(stat.ticks, adapt.ticks);
    EXPECT_GT(adapt.ticks, hyst.ticks);
    std::ostringstream os;
    EXPECT_EQ(renderFigure(*spec, run, os), 0) << os.str();

    // The hot-reuse pattern still ties at this scale — that is the
    // documented limitation the second pattern exists to cover, and
    // it pins why the eviction cell may not regress into an
    // in-cache pattern.
    EXPECT_EQ(run.result.at("hot-reuse", "rnuma").stats,
              run.result.at("hot-reuse", "rnuma-hysteresis").stats);
}

TEST(FigureRegistry, Fig8IsAPolicySweepOverStaticThresholds)
{
    // The threshold axis lives in the protocol spec, not in Params:
    // every fig8 cell runs the base machine configuration.
    Sweep s = findFigure("fig8")->build(testScale);
    Params base = Params::base();
    for (const Cell &c : s.cells()) {
        EXPECT_EQ(c.params.relocationThreshold,
                  base.relocationThreshold);
        EXPECT_EQ(c.proto.id, "rnuma-" + c.config);
        ASSERT_TRUE(c.proto.makePolicy != nullptr);
    }
}

TEST(FigureRegistry, Table2RendersAndPasses)
{
    const FigureSpec *spec = findFigure("table2");
    ASSERT_NE(spec, nullptr);
    SweepRunner runner(2);
    FigureRun run = runFigure(*spec, 1.0, runner, /*verify=*/true);
    std::ostringstream os;
    EXPECT_EQ(renderFigure(*spec, run, os), 0);
    EXPECT_NE(os.str().find("PASS"), std::string::npos);
}

TEST(FigureRegistry, MicroFigureRunsVerifiedAndRenders)
{
    const FigureSpec *spec = findFigure("micro");
    ASSERT_NE(spec, nullptr);
    SweepRunner runner(4);
    FigureRun run = runFigure(*spec, 0.02, runner, /*verify=*/true);
    EXPECT_EQ(run.result.cells.size(), 16u);
    std::ostringstream os;
    EXPECT_EQ(renderFigure(*spec, run, os), 0);
    EXPECT_NE(os.str().find("private-loop"), std::string::npos);
}

// Each extension figure enforces its invariant in its renderer: a
// hand-built run that satisfies it renders with status 0 and no
// MISMATCH line; breaking one counter makes the renderer return 1
// with a MISMATCH line naming the offending row.

TEST(FigureInvariants, PoliciesSuppressionRulesMustRelocateLess)
{
    std::vector<CellResult> cells = {
        fakeCell("evict-storm", "baseline", 100),
        fakeCell("evict-storm", "rnuma", 300, 10),
        fakeCell("evict-storm", "rnuma-hysteresis", 200, 5)};
    std::string out;
    EXPECT_EQ(renderCells("policies", cells, out), 0) << out;
    EXPECT_EQ(out.find("MISMATCH"), std::string::npos) << out;

    cells[2].stats.relocations = 10; // static <= hysteresis
    EXPECT_EQ(renderCells("policies", cells, out), 1);
    EXPECT_NE(out.find("MISMATCH: evict-storm: rnuma-hysteresis made "
                       "10 relocations, the static rule 10"),
              std::string::npos)
        << out;
}

TEST(FigureInvariants, ScalingChecksDirectoryBitsAndFormatParity)
{
    // Per entry: full-map 2N+3 bits, limited-pointer-4 2(4*log2 N+1)+3.
    auto scalingCell = [](std::size_t nodes, const std::string &dir,
                          std::uint64_t bitsPerEntry) {
        CellResult c = fakeCell(
            "shift", "n" + std::to_string(nodes) + "/constant/" + dir,
            1000);
        c.protocol = "rnuma";
        c.network = "constant";
        c.directory = dir;
        c.stats.dirEntries = 10;
        c.stats.dirBits = 10 * bitsPerEntry;
        return c;
    };
    std::vector<CellResult> cells = {
        scalingCell(8, "full-map", 19),
        scalingCell(8, "limited-pointer-4", 29),
        scalingCell(128, "full-map", 259),
        scalingCell(128, "limited-pointer-4", 61)};
    std::string out;
    EXPECT_EQ(renderCells("scaling", cells, out), 0) << out;
    EXPECT_EQ(out.find("MISMATCH"), std::string::npos) << out;

    // Limited-pointer no smaller than full-map at the largest size.
    std::vector<CellResult> bits = cells;
    bits[3].stats.dirBits = 10 * 259;
    EXPECT_EQ(renderCells("scaling", bits, out), 1);
    EXPECT_NE(out.find("MISMATCH: n128/constant/limited-pointer-4: "
                       "259.00 bits per entry against full-map's "
                       "259.00"),
              std::string::npos)
        << out;

    // Limited-pointer cheaper than full-map at the smallest size.
    bits = cells;
    bits[1].stats.dirBits = 10 * 15;
    EXPECT_EQ(renderCells("scaling", bits, out), 1);
    EXPECT_NE(out.find("MISMATCH: n8/constant/limited-pointer-4: 15.00 "
                       "bits per entry against full-map's 19.00"),
              std::string::npos)
        << out;

    // The directory format changed the entry count on one size.
    std::vector<CellResult> entries = cells;
    entries[1].stats.dirEntries = 11;
    EXPECT_EQ(renderCells("scaling", entries, out), 1);
    EXPECT_NE(out.find("MISMATCH: n8/constant/limited-pointer-4: 1000 "
                       "ticks / 11 dir entries, but full-map has "
                       "1000 / 10"),
              std::string::npos)
        << out;
}

} // namespace rnuma::driver
