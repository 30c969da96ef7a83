/**
 * @file
 * Tests for the sweep driver (src/driver): serial-vs-parallel
 * RunStats determinism across thread counts, the runner's
 * content-addressed workload cache (hit/miss accounting across runs,
 * key semantics, recovery from a failed generation), the counter
 * gate (every counter exact, coverage loss, current-schema-only and
 * checked-count loading), byte-identical JSON across job counts,
 * JSON round-trip of a small executed sweep, sweep declaration
 * invariants, and the unknown-app / empty-sweep error paths. Uses
 * the tiny test_util.hh machine so the suites stay fast. The figure
 * registry's suites are in test_figures.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "driver/compare.hh"
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

TEST(JsonRoundTrip, SmallSweepSurvivesWriteAndParse)
{
    Sweep s = smallSweep();
    FigureRun run = wrap(s, SweepRunner(2).run(s));

    std::ostringstream os;
    writeJson(os, {run});
    JsonValue doc = parseJson(os.str());

    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.get("schema"), nullptr);
    EXPECT_EQ(doc.get("schema")->str, "rnuma-sweep-results/v9");

    const JsonValue *figures = doc.get("figures");
    ASSERT_NE(figures, nullptr);
    ASSERT_TRUE(figures->isArray());
    ASSERT_EQ(figures->array.size(), 1u);

    const JsonValue &fig = figures->array[0];
    EXPECT_EQ(fig.get("name")->str, "small");
    // v9: no host timings anywhere in the document.
    EXPECT_EQ(fig.get("jobs"), nullptr);
    EXPECT_EQ(fig.get("wall_ms"), nullptr);

    // The v4 per-figure protocols array: distinct ids in
    // first-appearance order.
    const JsonValue *protos = fig.get("protocols");
    ASSERT_NE(protos, nullptr);
    ASSERT_TRUE(protos->isArray());
    ASSERT_EQ(protos->array.size(), 3u);
    EXPECT_EQ(protos->array[0].str, "ccnuma");
    EXPECT_EQ(protos->array[1].str, "scoma");
    EXPECT_EQ(protos->array[2].str, "rnuma");

    const JsonValue *cells = fig.get("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->array.size(), run.result.cells.size());

    // Every serialized counter round-trips exactly (the values fit a
    // double at test scale).
    for (std::size_t i = 0; i < cells->array.size(); ++i) {
        const JsonValue &jc = cells->array[i];
        const CellResult &cc = run.result.cells[i];
        EXPECT_EQ(jc.get("app")->str, cc.app);
        EXPECT_EQ(jc.get("config")->str, cc.config);
        EXPECT_EQ(jc.get("wall_ms"), nullptr);
        EXPECT_EQ(jc.get("events_per_sec"), nullptr);
        const JsonValue *stats = jc.get("stats");
        ASSERT_NE(stats, nullptr);
        for (const StatField &f : statFields()) {
            const JsonValue *v = stats->get(f.name);
            ASSERT_NE(v, nullptr) << f.name;
            EXPECT_EQ(static_cast<std::uint64_t>(v->number),
                      f.get(cc.stats))
                << cc.app << "/" << cc.config << " " << f.name;
        }
    }
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

namespace
{

/** One executed smallSweep, serialized and loaded back. */
ResultDoc
smallDoc()
{
    Sweep s = smallSweep();
    std::ostringstream os;
    writeJson(os, {wrap(s, SweepRunner(1).run(s))});
    return loadResults(os.str());
}

} // namespace

TEST(CompareGate, IdenticalResultsPass)
{
    ResultDoc doc = smallDoc();
    std::ostringstream os;
    EXPECT_EQ(compareResults(doc, doc, os), 0u);
    EXPECT_NE(os.str().find("ok:   small: 12 cells, counters identical"),
              std::string::npos);
    EXPECT_NE(os.str().find("compare: PASS"), std::string::npos);
}

TEST(CompareGate, TicksDriftFailsExactly)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].cells[3].counters["ticks"] += 1;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, os), 1u);
    EXPECT_NE(os.str().find("ticks drifted"), std::string::npos);
}

TEST(CompareGate, EventsDriftFails)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].cells[0].counters["events"] += 5;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, os), 1u);
    EXPECT_NE(os.str().find("events drifted"), std::string::npos);

    // Independent cells accumulate independent violations.
    cur.figures[0].cells[1].counters["refs"] -= 1;
    std::ostringstream os2;
    EXPECT_EQ(compareResults(base, cur, os2), 2u);
    EXPECT_NE(os2.str().find("refs drifted"), std::string::npos);
    EXPECT_NE(os2.str().find("compare: FAIL (2 violation(s))"),
              std::string::npos);
}

TEST(CompareGate, EveryStatFieldIsGated)
{
    // A +1 drift in any one serialized counter of one cell is exactly
    // one violation, and the report names that counter.
    ResultDoc base = smallDoc();
    for (const StatField &f : statFields()) {
        ResultDoc cur = base;
        cur.figures[0].cells[5].counters.at(f.name) += 1;
        std::ostringstream os;
        EXPECT_EQ(compareResults(base, cur, os), 1u) << f.name;
        EXPECT_NE(os.str().find(std::string(": ") + f.name +
                                " drifted"),
                  std::string::npos)
            << f.name << "\n" << os.str();
    }
}

TEST(CompareGate, StatsKeyOnOneSideOnlyIsAViolation)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].cells[2].counters.erase("relocations");
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, os), 1u);
    EXPECT_NE(os.str().find("counter relocations missing from the "
                            "current document"),
              std::string::npos)
        << os.str();

    // The other way round: a key the baseline lacks.
    std::ostringstream os2;
    EXPECT_EQ(compareResults(cur, base, os2), 1u);
    EXPECT_NE(os2.str().find("counter relocations missing from the "
                             "baseline"),
              std::string::npos)
        << os2.str();
}

TEST(CompareGate, MissingCellAndFigureAreViolations)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].cells.pop_back();
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, os), 1u);
    EXPECT_NE(os.str().find("cell missing"), std::string::npos);

    ResultDoc none;
    std::ostringstream os2;
    EXPECT_EQ(compareResults(base, none, os2), 1u);
    EXPECT_NE(os2.str().find("small: figure missing"), std::string::npos);
}

TEST(CompareGate, NewCellsAndFiguresAreNotesNotViolations)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    ResultCell extra = cur.figures[0].cells[0];
    extra.config = "rnuma-extra";
    cur.figures[0].cells.push_back(extra);
    ResultFigure fig;
    fig.name = "fig99";
    cur.figures.push_back(fig);
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, os), 0u);
    EXPECT_NE(os.str().find("small/moldyn/rnuma-extra is new"),
              std::string::npos);
    EXPECT_NE(os.str().find("figure fig99 is new"), std::string::npos);
}

TEST(CompareGate, ScaleMismatchIsAViolation)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].scale *= 2;
    // The figure is incomparable as a whole: one violation, and its
    // cells are not diffed.
    cur.figures[0].cells[0].counters["events"] += 999;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, os), 1u);
    EXPECT_NE(os.str().find("scale changed"), std::string::npos);
    cur.figures[0].cells[0].counters["events"] -= 999;

    // Serialization rounding must not count as a mismatch.
    cur.figures[0].scale =
        base.figures[0].scale * (1.0 + 1e-7);
    std::ostringstream os2;
    EXPECT_EQ(compareResults(base, cur, os2), 0u);
}

TEST(CompareGate, LoadResultsRoundTripsWriteJson)
{
    Sweep s = smallSweep();
    FigureRun run = wrap(s, SweepRunner(1).run(s));
    std::ostringstream os;
    writeJson(os, {run});
    ResultDoc loaded = loadResults(os.str());
    ASSERT_EQ(loaded.figures.size(), 1u);
    const ResultFigure &f = loaded.figures[0];
    EXPECT_EQ(f.name, run.name);
    EXPECT_DOUBLE_EQ(f.scale, run.scale);
    ASSERT_EQ(f.cells.size(), run.result.cells.size());
    for (std::size_t i = 0; i < f.cells.size(); ++i) {
        const ResultCell &a = f.cells[i];
        const CellResult &c = run.result.cells[i];
        EXPECT_EQ(a.app, c.app);
        EXPECT_EQ(a.config, c.config);
        EXPECT_EQ(a.protocol, c.protocol);
        EXPECT_EQ(a.network, c.network);
        EXPECT_EQ(a.directory, c.directory);
        EXPECT_EQ(a.workload, c.workload);
        // Every counter statFields() names, with the run's value.
        std::map<std::string, std::uint64_t> want;
        for (const StatField &sf : statFields())
            want[sf.name] = sf.get(c.stats);
        EXPECT_EQ(a.counters, want) << a.app << "/" << a.config;
    }
}

namespace
{

/** A one-cell v9 document whose stats carry @p stats verbatim. */
std::string
oneCellDoc(const std::string &stats)
{
    return "{\"schema\": \"rnuma-sweep-results/v9\", \"figures\": ["
           "{\"name\": \"small\", \"scale\": 0.05, \"status\": 0,"
           " \"cells\": ["
           "{\"app\": \"moldyn\", \"config\": \"rnuma\","
           " \"protocol\": \"rnuma\", \"network\": \"constant\","
           " \"directory\": \"full-map\", \"workload\": \"moldyn\","
           " \"stats\": {" + stats + "}}]}]}";
}

} // namespace

TEST(CompareGate, IdChangesAndFeedbackCounterDriftFail)
{
    ResultDoc base = loadResults(oneCellDoc(
        "\"ticks\": 42, \"events\": 9, \"evictions_zero_hit\": 3,"
        " \"evicted_page_hits\": 90"));
    ResultDoc cur = base;
    cur.figures[0].cells[0].counters["evictions_zero_hit"] = 5;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, os), 1u);
    EXPECT_NE(os.str().find("evictions_zero_hit drifted"),
              std::string::npos);

    cur = base;
    cur.figures[0].cells[0].protocol = "rnuma-t16";
    cur.figures[0].cells[0].network = "mesh-2d";
    std::ostringstream os2;
    EXPECT_EQ(compareResults(base, cur, os2), 2u);
    EXPECT_NE(os2.str().find("protocol changed"), std::string::npos);
    EXPECT_NE(os2.str().find("network changed"), std::string::npos);
}

TEST(CompareGate, RejectsOlderSchemaVersions)
{
    // Only the current schema loads; an older document fails with
    // its schema named, never with a silently defaulted diff.
    for (int v = 1; v <= 8; ++v) {
        std::string old = oneCellDoc("\"ticks\": 42");
        std::string schema = "rnuma-sweep-results/v" +
            std::to_string(v);
        old.replace(old.find("rnuma-sweep-results/v9"),
                    schema.size(), schema);
        try {
            loadResults(old);
            ADD_FAILURE() << schema << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("'" + schema + "'"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_NO_THROW(loadResults(oneCellDoc("\"ticks\": 42")));
}

TEST(CompareGate, RejectsCountsACastCannotHold)
{
    // A baseline comes from outside the program: a negative,
    // fractional, or >= 2^64 counter must be a diagnostic naming the
    // cell and field, not an undefined double-to-integer cast.
    for (const char *bad :
         {"-5", "1.5", "1e20", "18446744073709551616", "\"7\""}) {
        try {
            loadResults(oneCellDoc(std::string("\"ticks\": ") + bad));
            ADD_FAILURE() << "ticks " << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("small/moldyn/rnuma"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("'ticks'"), std::string::npos) << msg;
        }
    }
    // The largest double below 2^64 still fits.
    ResultDoc ok = loadResults(
        oneCellDoc("\"ticks\": 18446744073709549568"));
    EXPECT_EQ(ok.figures[0].cells[0].counters.at("ticks"),
              18446744073709549568ull);
}

TEST(CompareGate, RejectsForeignJson)
{
    EXPECT_THROW(loadResults("{\"schema\": \"other/v1\"}"),
                 std::runtime_error);
    EXPECT_THROW(loadResults("{\"figures\": []}"), std::runtime_error);
    EXPECT_THROW(loadResults("{\"schema\": \"rnuma-sweep-results/v9\"}"),
                 std::runtime_error);
    EXPECT_THROW(loadResults("[1, 2]"), std::runtime_error);
    EXPECT_THROW(loadResults("not json"), std::runtime_error);
}

TEST(JsonParser, RejectsMalformedDocuments)
{
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(parseJson("[1, 2,]"), std::runtime_error);
    EXPECT_THROW(parseJson("{} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson("nul"), std::runtime_error);
    EXPECT_THROW(parseJson("1.2.3"), std::runtime_error);
    EXPECT_THROW(parseJson("12e4e2"), std::runtime_error);
    EXPECT_THROW(parseJson("[1-2]"), std::runtime_error);
}

TEST(JsonParser, HandlesEscapesAndNumbers)
{
    JsonValue v = parseJson(
        "{\"s\": \"a\\\"b\\\\c\\n\\u0041\", \"n\": -1.5e2, "
        "\"b\": true, \"z\": null, \"arr\": [1, 2, 3]}");
    EXPECT_EQ(v.get("s")->str, "a\"b\\c\nA");
    EXPECT_DOUBLE_EQ(v.get("n")->number, -150.0);
    EXPECT_TRUE(v.get("b")->boolean);
    EXPECT_EQ(v.get("z")->kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.get("arr")->array.size(), 3u);
    // Round-trip through the writer's escaping.
    EXPECT_EQ(jsonQuote("a\"b\\c\n\t"),
              "\"a\\\"b\\\\c\\n\\t\"");
}

} // namespace rnuma::driver
