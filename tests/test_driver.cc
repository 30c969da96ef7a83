/**
 * @file
 * Tests for the sweep driver (src/driver): serial-vs-parallel
 * RunStats determinism across thread counts, the runner's
 * content-addressed workload cache (hit/miss accounting across runs,
 * key semantics, recovery from a failed generation), byte-identical
 * JSON across job counts, the results JSON of a small executed sweep
 * checked line by line, sweep declaration invariants, and the
 * unknown-app / empty-sweep error paths. Uses the tiny test_util.hh
 * machine so the suites stay fast. The figure registry's suites are
 * in test_figures.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "driver/figures.hh"
#include "driver/json.hh"
#include "driver/result_sink.hh"
#include "driver/sweep.hh"
#include "driver/sweep_runner.hh"
#include "sim/runner.hh"
#include "workload/registry.hh"

#include "test_util.hh"

namespace rnuma::driver
{

namespace
{

constexpr double testScale = 0.05;

/** A small multi-app, multi-protocol sweep on the tiny machine. */
Sweep
smallSweep()
{
    Sweep s("small");
    Params p = test::smallParams();
    for (const char *app : {"moldyn", "radix", "em3d"}) {
        s.addComparison(app, p, {app, p, testScale}, {});
        s.addApp(app, "ccnuma", p, "ccnuma", testScale);
        s.addApp(app, "scoma", p, "scoma", testScale);
        s.addApp(app, "rnuma", p, "rnuma", testScale);
    }
    return s;
}

FigureRun
wrap(const Sweep &s, SweepResult r)
{
    FigureRun run;
    run.name = s.name();
    run.title = "driver test sweep";
    run.paperRef = "none";
    run.scale = testScale;
    run.jobs = 1;
    run.result = std::move(r);
    return run;
}

} // namespace

TEST(SweepDecl, RejectsDuplicateCellAndMissingWorkload)
{
    Sweep s("dup");
    Params p = test::smallParams();
    s.addApp("moldyn", "ccnuma", p, "ccnuma", testScale);
    EXPECT_THROW(
        s.addApp("moldyn", "ccnuma", p, "scoma", testScale),
        std::runtime_error);
    EXPECT_THROW(s.add({"x", "y", protocolSpec("ccnuma"), p,
                        {"", p, testScale}}),
                 std::logic_error);
}

TEST(SweepDecl, AddComparisonIsTheBaselinePlusOneCellPerSpec)
{
    // addComparison builds exactly the infinite-block-cache CC-NUMA
    // baseline plus the cells addApp would, and keys its columns by
    // spec id.
    Params p = test::smallParams();
    Params inf = p;
    inf.infiniteBlockCache = true;
    Sweep by_hand("by-hand");
    by_hand.add({"radix", "baseline", protocolSpec("ccnuma"), inf,
                 {"radix", p, testScale}});
    by_hand.addApp("radix", "ccnuma", p, "ccnuma", testScale);
    by_hand.addApp("radix", "rnuma", p, "rnuma", testScale);
    Sweep row("row");
    row.addComparison("radix", p, {"radix", p, testScale},
                      {"ccnuma", "rnuma"});
    ASSERT_EQ(row.size(), by_hand.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
        const Cell &a = row.cells()[i];
        const Cell &b = by_hand.cells()[i];
        EXPECT_EQ(a.app, b.app);
        EXPECT_EQ(a.config, b.config);
        EXPECT_EQ(a.proto.id, b.proto.id);
        EXPECT_EQ(a.params.fingerprint(), b.params.fingerprint());
        EXPECT_EQ(a.workload.key(), b.workload.key());
    }
    EXPECT_TRUE(row.cells()[0].params.infiniteBlockCache);
    EXPECT_EQ(SweepRunner(1).run(row).cells.size(), 3u);
    // An unknown spec id is fatal at declaration time.
    EXPECT_THROW(row.addComparison("lu", p, {"lu", p, testScale},
                                   {"no-such-protocol"}),
                 std::runtime_error);
}

TEST(SweepDecl, ParseScaleAcceptsOnlyPositiveFiniteNumbers)
{
    EXPECT_EQ(parseScale("0.1"), 0.1);
    EXPECT_EQ(parseScale("2"), 2.0);
    EXPECT_EQ(parseScale("1e300"), 1e300); // finite: scaled() judges it
    for (const char *bad : {"", "x", "0.1x", "0", "-1", "nan", "NaN",
                            "inf", "-inf", "infinity", "1e999"}) {
        EXPECT_FALSE(parseScale(bad).has_value()) << bad;
    }
}

TEST(SweepDecl, ParseCountAcceptsOnlyNonNegativeIntegers)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("48"), 48u);
    EXPECT_EQ(parseCount("9223372036854775807"),
              std::size_t{9223372036854775807u}); // LONG_MAX
    for (const char *bad : {"", "x", "4x", "1.5", "-1", "-0x1", "1e3",
                            "9223372036854775808",
                            "99999999999999999999"}) {
        EXPECT_FALSE(parseCount(bad).has_value()) << bad;
    }
}

TEST(SweepRunnerTest, EmptySweepYieldsEmptyResultOnAnyJobCount)
{
    Sweep s("empty");
    for (std::size_t jobs : {1u, 4u}) {
        SweepResult r = SweepRunner(jobs).run(s);
        EXPECT_TRUE(r.cells.empty());
    }
}

TEST(SweepRunnerTest, UnknownAppFailsTheSweepOnAnyJobCount)
{
    Sweep s("bad");
    Params p = test::smallParams();
    s.addApp("no-such-app", "ccnuma", p, "ccnuma",
             testScale);
    s.addApp("moldyn", "ccnuma", p, "ccnuma", testScale);
    // Serially the registry's fatal surfaces directly; in parallel
    // the pool catches it and rethrows after draining.
    EXPECT_THROW(SweepRunner(1).run(s), std::runtime_error);
    EXPECT_THROW(SweepRunner(4).run(s), std::runtime_error);
}

TEST(SweepRunnerTest, ResultsKeepCellOrderAndLabels)
{
    Sweep s = smallSweep();
    SweepResult r = SweepRunner(2).run(s);
    ASSERT_EQ(r.cells.size(), s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(r.cells[i].app, s.cells()[i].app);
        EXPECT_EQ(r.cells[i].config, s.cells()[i].config);
        EXPECT_GT(r.cells[i].stats.refs, 0u);
    }
    EXPECT_NE(r.find("moldyn", "rnuma"), nullptr);
    EXPECT_EQ(r.find("moldyn", "no-such-config"), nullptr);
    EXPECT_THROW(r.at("moldyn", "no-such-config"),
                 std::runtime_error);
}

TEST(SweepRunnerTest, BitIdenticalStatsAcrossThreadCounts)
{
    Sweep s = smallSweep();
    SweepResult serial = SweepRunner(1).run(s);
    // The results document carries no host timings, so its bytes do
    // not depend on the job count either.
    auto json = [&s](SweepResult r, std::size_t jobs) {
        FigureRun run = wrap(s, std::move(r));
        run.jobs = jobs;
        run.wallMs = 10.0 * static_cast<double>(jobs);
        std::ostringstream os;
        writeJson(os, {run});
        return os.str();
    };
    const std::string serialJson = json(serial, 1);
    for (std::size_t jobs : {2u, 4u, 8u}) {
        SweepResult parallel = SweepRunner(jobs).run(s);
        ASSERT_EQ(parallel.cells.size(), serial.cells.size());
        for (std::size_t i = 0; i < serial.cells.size(); ++i) {
            EXPECT_EQ(serial.cells[i].stats,
                      parallel.cells[i].stats)
                << "cell " << serial.cells[i].app << "/"
                << serial.cells[i].config << " at jobs=" << jobs;
        }
        // The library's own assertion agrees.
        EXPECT_NO_THROW(verifySerialIdentical(s, parallel));
        if (jobs == 4) {
            EXPECT_EQ(json(parallel, jobs), serialJson);
        }
    }
}

TEST(SweepRunnerTest, RegistryAppsAreDeterministicAcrossJobs)
{
    // The differential-determinism safety net under hot-path layout
    // work: every registered protocol on every Table 3 generator,
    // serial vs 4 jobs, must produce bit-identical RunStats — every
    // counter, via RunStats::operator== — so a data-layout change
    // that silently breaks reproducibility cannot land.
    Params p = test::smallParams();
    std::vector<std::string> ids = protocolIds();
    Sweep s("determinism");
    for (const std::string &app : workloadIds("app")) {
        s.addComparison(app, p, {app, p, 0.02, /*seed=*/7}, ids);
    }
    ASSERT_EQ(s.size(), 10 * (ids.size() + 1));
    SweepResult serial = SweepRunner(1).run(s);
    SweepResult parallel = SweepRunner(4).run(s);
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(parallel.cells[i].stats, serial.cells[i].stats)
            << serial.cells[i].app << " " << serial.cells[i].config;
    }
}

TEST(SweepRunnerTest, VerifyDetectsTamperedStats)
{
    Sweep s = smallSweep();
    SweepResult r = SweepRunner(1).run(s);
    r.cells[3].stats.ticks += 1;
    EXPECT_THROW(verifySerialIdentical(s, r), std::logic_error);
}

TEST(SweepResultTest, NormAndBestOfBaseReadTheBaselineRow)
{
    Sweep s = smallSweep();
    SweepResult r = SweepRunner(1).run(s);
    auto ticks = [&r](const char *config) {
        return r.at("radix", config).stats.ticks;
    };
    EXPECT_EQ(r.norm("radix", "rnuma"),
              normalizedTime(ticks("rnuma"), ticks("baseline")));
    EXPECT_EQ(r.norm("radix", "rnuma", "scoma"),
              normalizedTime(ticks("rnuma"), ticks("scoma")));
    EXPECT_EQ(r.norm("radix", "baseline"), 1.0);
    EXPECT_EQ(r.bestOfBase("radix"),
              std::min(r.norm("radix", "ccnuma"),
                       r.norm("radix", "scoma")));
    EXPECT_THROW(r.norm("radix", "no-such-config"),
                 std::runtime_error);
    EXPECT_THROW(r.norm("no-such-app", "rnuma"), std::runtime_error);

    // A zero-tick baseline is a flagged (NaN) cell, not a panic.
    for (CellResult &c : r.cells)
        if (c.app == "radix" && c.config == "baseline")
            c.stats.ticks = 0;
    EXPECT_TRUE(std::isnan(r.norm("radix", "rnuma")));
    EXPECT_TRUE(std::isnan(r.bestOfBase("radix")));

    // bestOfBase needs both base systems in the row.
    Sweep only_cc("only-cc");
    Params p = test::smallParams();
    only_cc.addComparison("moldyn", p, {"moldyn", p, testScale},
                          {"ccnuma"});
    SweepResult cc = SweepRunner(1).run(only_cc);
    EXPECT_GT(cc.norm("moldyn", "ccnuma"), 0.0);
    EXPECT_THROW(cc.bestOfBase("moldyn"), std::runtime_error);
}

namespace
{

/** @p text's lines, each without its indent and trailing comma. */
std::vector<std::string>
jsonLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        line.erase(0, line.find_first_not_of(' '));
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        lines.push_back(line);
    }
    return lines;
}

/** The line writeJson() writes for a string member. */
std::string
member(const std::string &key, const std::string &value)
{
    return jsonQuote(key) + ": " + jsonQuote(value);
}

} // namespace

TEST(ResultSink, SmallSweepWritesEveryCellAndCounter)
{
    Sweep s = smallSweep();
    FigureRun run = wrap(s, SweepRunner(2).run(s));

    std::ostringstream os;
    writeJson(os, {run});
    const std::string text = os.str();
    const std::vector<std::string> lines = jsonLines(text);

    ASSERT_GE(lines.size(), 2u);
    EXPECT_EQ(lines[1], member("schema", "rnuma-sweep-results/v9"));
    // v9: no host timings anywhere in the document.
    for (const char *key : {"jobs", "wall_ms", "events_per_sec"})
        EXPECT_EQ(text.find(jsonQuote(key)), std::string::npos) << key;
    EXPECT_NE(std::find(lines.begin(), lines.end(),
                        member("name", "small")),
              lines.end());

    // The per-figure protocols array: distinct ids in
    // first-appearance order.
    auto protos = std::find(lines.begin(), lines.end(),
                            "\"protocols\": [");
    ASSERT_GE(lines.end() - protos, 5);
    EXPECT_EQ(std::vector<std::string>(protos + 1, protos + 5),
              (std::vector<std::string>{"\"ccnuma\"", "\"scoma\"",
                                        "\"rnuma\"", "]"}));

    // Every cell in order: its ids, then a line per counter
    // statFields() names, with the run's value.
    std::vector<std::string> want;
    for (const CellResult &c : run.result.cells) {
        want.push_back("{");
        want.push_back(member("app", c.app));
        want.push_back(member("config", c.config));
        want.push_back(member("protocol", c.protocol));
        want.push_back(member("protocol_name", c.protocolName));
        want.push_back(member("network", c.network));
        want.push_back(member("directory", c.directory));
        want.push_back(member("workload", c.workload));
        want.push_back("\"stats\": {");
        for (const StatField &f : statFields())
            want.push_back(jsonQuote(f.name) + ": " +
                           std::to_string(f.get(c.stats)));
        want.push_back("}");
        want.push_back("}");
    }
    want.push_back("]");
    auto cells = std::find(lines.begin(), lines.end(), "\"cells\": [");
    ASSERT_GE(lines.end() - cells,
              static_cast<std::ptrdiff_t>(want.size()) + 1);
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(cells[1 + static_cast<std::ptrdiff_t>(i)], want[i])
            << "line " << i << " of the cells array";
}

TEST(RunnerCache, SharesGenerationAcrossCellsAndCountsHits)
{
    // smallSweep: 3 apps x 4 configs, each app's four cells sharing
    // one (app, gen-params, scale, seed) workload input.
    Sweep s = smallSweep();
    SweepResult r = SweepRunner(2).run(s);
    EXPECT_EQ(r.workloadsGenerated, 3u);
    EXPECT_EQ(r.workloadCacheHits, 9u);
    for (const CellResult &c : r.cells) {
        EXPECT_GT(c.stats.refs, 0u) << c.app << "/" << c.config;
        EXPECT_GT(c.stats.events, 0u) << c.app << "/" << c.config;
    }
}

TEST(RunnerCache, KeyDistinguishesGeneratorInputs)
{
    Params p = test::smallParams();
    Params q = p;
    q.blockCacheSize = 2 * p.blockCacheSize;
    auto key = [](const WorkloadInput &in) { return in.key(); };
    EXPECT_EQ(key({"fmm", p, 0.1, 1}), key({"fmm", p, 0.1, 1}));
    EXPECT_NE(key({"fmm", p, 0.1, 1}), key({"fmm", q, 0.1, 1}));
    EXPECT_NE(key({"fmm", p, 0.1, 1}), key({"fmm", p, 0.2, 1}));
    EXPECT_NE(key({"fmm", p, 0.1, 1}), key({"fmm", p, 0.1, 2}));
    EXPECT_NE(key({"fmm", p, 0.1, 1}), key({"lu", p, 0.1, 1}));
    EXPECT_NE(key({"zipf-serve", p, 0.1, 1, "theta=0.2"}),
              key({"zipf-serve", p, 0.1, 1, "theta=0.95"}));
    EXPECT_NE(key({"zipf-serve", p, 0.1, 1, "theta=0.2"}),
              key({"zipf-serve", p, 0.1, 1}));
}

TEST(RunnerCache, OneRunnerGeneratesEachWorkloadOnceAcrossRuns)
{
    // The same sweep twice on one runner: the second run generates
    // nothing, serves every cell as a hit, and its per-cell stats
    // stay bit-identical to a fresh runner's.
    Sweep s = smallSweep();
    SweepRunner runner(2);

    SweepResult first = runner.run(s);
    EXPECT_EQ(first.workloadsGenerated, 3u);
    EXPECT_EQ(first.workloadCacheHits, 9u);

    SweepResult second = runner.run(s);
    EXPECT_EQ(second.workloadsGenerated, 0u);
    EXPECT_EQ(second.workloadCacheHits, 12u);
    EXPECT_EQ(runner.workloadsGenerated(), 3u);
    EXPECT_EQ(runner.workloadCacheHits(), 21u);

    SweepResult fresh = SweepRunner(1).run(s);
    ASSERT_EQ(second.cells.size(), fresh.cells.size());
    for (std::size_t i = 0; i < second.cells.size(); ++i) {
        EXPECT_EQ(second.cells[i].stats, fresh.cells[i].stats)
            << second.cells[i].app << "/" << second.cells[i].config;
    }
}

TEST(RunnerCache, FailedGenerationLeavesTheRunnerUsable)
{
    // A generation failure aborts the run without caching anything —
    // not even the sibling moldyn workload that generated fine — so
    // the same runner then runs a valid sweep from scratch.
    Params p = test::smallParams();
    Sweep bad("bad");
    bad.addApp("no-such-app", "ccnuma", p, "ccnuma", testScale);
    bad.addApp("moldyn", "ccnuma", p, "ccnuma", testScale);
    SweepRunner runner(2);
    EXPECT_THROW(runner.run(bad), std::runtime_error);
    EXPECT_EQ(runner.workloadsGenerated(), 0u);
    EXPECT_EQ(runner.workloadCacheHits(), 0u);

    Sweep s = smallSweep();
    SweepResult r = runner.run(s);
    EXPECT_EQ(r.workloadsGenerated, 3u);
    EXPECT_EQ(r.workloadCacheHits, 9u);
    SweepResult fresh = SweepRunner(1).run(s);
    ASSERT_EQ(r.cells.size(), fresh.cells.size());
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
        EXPECT_EQ(r.cells[i].stats, fresh.cells[i].stats)
            << r.cells[i].app << "/" << r.cells[i].config;
    }
}

} // namespace rnuma::driver
