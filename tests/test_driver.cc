/**
 * @file
 * Tests for the sweep driver (src/driver): serial-vs-parallel
 * RunStats determinism across thread counts, the content-addressed
 * workload cache (hit/miss accounting, opt-out bit-identity, key
 * semantics), the counter gate (every counter exact, coverage loss,
 * current-schema-only and checked-count loading), byte-identical
 * JSON across job counts, JSON round-trip of a small
 * executed sweep, sweep declaration invariants, and the unknown-app
 * / empty-sweep error paths. Uses the tiny test_util.hh machine so
 * the suites stay fast.
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
#include "workload/micro.hh"
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
    Sweep s("small", "driver test sweep", "none");
    Params p = test::smallParams();
    for (const char *app : {"moldyn", "radix", "em3d"}) {
        s.addBaseline(app, p, testScale);
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
    run.title = s.title();
    run.paperRef = s.paperRef();
    run.scale = testScale;
    run.jobs = 1;
    run.result = std::move(r);
    return run;
}

} // namespace

TEST(SweepDecl, RejectsDuplicateCellAndMissingFactory)
{
    Sweep s("dup", "", "");
    Params p = test::smallParams();
    s.addApp("moldyn", "ccnuma", p, "ccnuma", testScale);
    EXPECT_THROW(
        s.addApp("moldyn", "ccnuma", p, "scoma", testScale),
        std::runtime_error);
    EXPECT_THROW(s.add({"x", "y", protocolSpec("ccnuma"), p, nullptr,
                        "", ""}),
                 std::logic_error);
}

TEST(SweepDecl, AddComparisonIsTheBaselinePlusOneCellPerSpec)
{
    // addComparison builds exactly the cells addBaseline + addApp
    // would, and keys its columns by canonical spec id.
    Params p = test::smallParams();
    Sweep by_hand("by-hand", "", "");
    by_hand.addBaseline("radix", p, testScale);
    by_hand.addApp("radix", "ccnuma", p, "ccnuma", testScale);
    by_hand.addApp("radix", "rnuma", p, "rnuma", testScale);
    Sweep row("row", "", "");
    row.addComparison("radix", p,
                      workloadFactory("radix", p, testScale),
                      workloadCacheKey("radix", p, testScale), "radix",
                      {"ccnuma", "R-NUMA"});
    ASSERT_EQ(row.size(), by_hand.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
        const Cell &a = row.cells()[i];
        const Cell &b = by_hand.cells()[i];
        EXPECT_EQ(a.app, b.app);
        EXPECT_EQ(a.config, b.config);
        EXPECT_EQ(a.proto.id, b.proto.id);
        EXPECT_EQ(a.params.fingerprint(), b.params.fingerprint());
        EXPECT_EQ(a.workloadKey, b.workloadKey);
        EXPECT_EQ(a.workload, b.workload);
    }
    EXPECT_TRUE(row.cells()[0].params.infiniteBlockCache);
    EXPECT_EQ(SweepRunner(1).run(row).cells.size(), 3u);
    // An unknown spec id is fatal at declaration time.
    EXPECT_THROW(row.addComparison("lu", p,
                                   workloadFactory("lu", p, testScale),
                                   "", "lu", {"no-such-protocol"}),
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

TEST(SweepRunnerTest, EmptySweepYieldsEmptyResultOnAnyJobCount)
{
    Sweep s("empty", "", "");
    for (std::size_t jobs : {1u, 4u}) {
        SweepResult r = SweepRunner(jobs).run(s);
        EXPECT_TRUE(r.cells.empty());
    }
}

TEST(SweepRunnerTest, UnknownAppFailsTheSweepOnAnyJobCount)
{
    Sweep s("bad", "", "");
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
        JsonSink().write(os, {run});
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
    std::vector<std::string> ids;
    for (const ProtocolSpec *spec : ProtocolRegistry::global().all())
        ids.push_back(spec->id);
    Sweep s("determinism", "", "");
    for (const std::string &app : workloadIds("app")) {
        s.addComparison(app, p,
                        workloadFactory(app, p, 0.02, /*seed=*/7),
                        workloadCacheKey(app, p, 0.02, 7), app, ids);
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
    Sweep only_cc("only-cc", "", "");
    Params p = test::smallParams();
    only_cc.addComparison("moldyn", p,
                          workloadFactory("moldyn", p, testScale),
                          workloadCacheKey("moldyn", p, testScale),
                          "moldyn", {"ccnuma"});
    SweepResult cc = SweepRunner(1).run(only_cc);
    EXPECT_GT(cc.norm("moldyn", "ccnuma"), 0.0);
    EXPECT_THROW(cc.bestOfBase("moldyn"), std::runtime_error);
}

TEST(JsonRoundTrip, SmallSweepSurvivesWriteAndParse)
{
    Sweep s = smallSweep();
    FigureRun run = wrap(s, SweepRunner(2).run(s));

    std::ostringstream os;
    JsonSink().write(os, {run});
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

TEST(WorkloadCache, SharesGenerationAcrossCellsAndCountsHits)
{
    // smallSweep: 3 apps x 4 configs, each app's four cells sharing
    // one (app, gen-params, scale, seed) workload key.
    Sweep s = smallSweep();
    SweepResult r = SweepRunner(2).run(s);
    EXPECT_EQ(r.workloadsGenerated, 3u);
    EXPECT_EQ(r.workloadCacheHits, 9u);
    for (const CellResult &c : r.cells) {
        EXPECT_GT(c.stats.refs, 0u) << c.app << "/" << c.config;
        EXPECT_GT(c.stats.events, 0u) << c.app << "/" << c.config;
    }
}

TEST(WorkloadCache, OptOutIsBitIdenticalAndGeneratesPerCell)
{
    Sweep s = smallSweep();
    SweepResult cached = SweepRunner(1).run(s);
    SweepResult isolated =
        SweepRunner(1).cacheWorkloads(false).run(s);
    EXPECT_EQ(isolated.workloadsGenerated, 0u);
    EXPECT_EQ(isolated.workloadCacheHits, 0u);
    ASSERT_EQ(cached.cells.size(), isolated.cells.size());
    for (std::size_t i = 0; i < cached.cells.size(); ++i) {
        EXPECT_EQ(cached.cells[i].stats, isolated.cells[i].stats)
            << cached.cells[i].app << "/"
            << cached.cells[i].config;
    }
    // The cache-off reference path of verify agrees too.
    EXPECT_NO_THROW(verifySerialIdentical(s, isolated, false));
}

TEST(WorkloadCache, UnkeyedCellsBypassTheCache)
{
    Sweep s("unkeyed", "", "");
    Params p = test::smallParams();
    WorkloadFactory make = workloadFactory("moldyn", p, testScale);
    s.add({"moldyn", "a", protocolSpec("ccnuma"), p, make, "",
           "moldyn"});
    s.add({"moldyn", "b", protocolSpec("scoma"), p, make, "",
           "moldyn"});
    SweepResult r = SweepRunner(1).run(s);
    EXPECT_EQ(r.workloadsGenerated, 0u);
    EXPECT_EQ(r.workloadCacheHits, 0u);
    EXPECT_GT(r.at("moldyn", "a").stats.refs, 0u);
}

namespace
{

/** A Workload that is deliberately not a VectorWorkload. */
class OpaqueWorkload : public Workload
{
  public:
    explicit OpaqueWorkload(std::unique_ptr<VectorWorkload> inner)
        : inner_(std::move(inner))
    {
    }
    std::size_t numCpus() const override
    {
        return inner_->numCpus();
    }
    const Ref &next(CpuId cpu) override { return inner_->next(cpu); }
    void reset() override { inner_->reset(); }
    const std::string &name() const override
    {
        return inner_->name();
    }

  private:
    std::unique_ptr<VectorWorkload> inner_;
};

} // namespace

TEST(WorkloadCache, NonSnapshottableKeyedFactoryWastesNoGeneration)
{
    // A keyed factory whose product cannot be snapshotted: phase 1
    // still generates once, and that product must be handed to one
    // of the cells — total generations equal the cell count, the
    // same as with the cache off (never cells + 1).
    auto calls = std::make_shared<int>(0);
    Params p = test::smallParams();
    WorkloadFactory make = [calls, p] {
        ++*calls;
        return std::unique_ptr<Workload>(std::make_unique<
            OpaqueWorkload>(
            test::makeVectorWorkload("moldyn", p, testScale)));
    };
    Sweep s("opaque", "", "");
    s.add({"moldyn", "a", protocolSpec("ccnuma"), p, make,
           "opaque-key", "moldyn"});
    s.add({"moldyn", "b", protocolSpec("scoma"), p, make,
           "opaque-key", "moldyn"});
    SweepResult r = SweepRunner(1).run(s);
    EXPECT_EQ(r.workloadsGenerated, 0u);
    EXPECT_EQ(r.workloadCacheHits, 0u);
    EXPECT_GT(r.at("moldyn", "a").stats.refs, 0u);
    EXPECT_GT(r.at("moldyn", "b").stats.refs, 0u);
    EXPECT_EQ(*calls, 2);
    // And the streams are identical to the snapshotted path.
    Sweep keyed("keyed", "", "");
    keyed.addApp("moldyn", "a", p, "ccnuma", testScale);
    SweepResult kr = SweepRunner(1).run(keyed);
    EXPECT_EQ(kr.at("moldyn", "a").stats,
              r.at("moldyn", "a").stats);
}

TEST(WorkloadCache, KeyDistinguishesGeneratorInputs)
{
    Params p = test::smallParams();
    Params q = p;
    q.blockCacheSize = 2 * p.blockCacheSize;
    EXPECT_EQ(workloadCacheKey("fmm", p, 0.1, 1),
              workloadCacheKey("fmm", p, 0.1, 1));
    EXPECT_NE(workloadCacheKey("fmm", p, 0.1, 1),
              workloadCacheKey("fmm", q, 0.1, 1));
    EXPECT_NE(workloadCacheKey("fmm", p, 0.1, 1),
              workloadCacheKey("fmm", p, 0.2, 1));
    EXPECT_NE(workloadCacheKey("fmm", p, 0.1, 1),
              workloadCacheKey("fmm", p, 0.1, 2));
    EXPECT_NE(workloadCacheKey("fmm", p, 0.1, 1),
              workloadCacheKey("lu", p, 0.1, 1));
}

TEST(WorkloadCache, ProcessScopeCacheSharesAcrossRuns)
{
    // Two sweeps keyed on the same workloads, one shared cache: the
    // second run generates nothing, serves everything as hits, and
    // its per-cell stats stay bit-identical to an uncached run.
    Sweep s = smallSweep();
    driver::WorkloadCache shared;
    SweepRunner runner(2);
    runner.shareCache(&shared);

    SweepResult first = runner.run(s);
    EXPECT_EQ(first.workloadsGenerated, 3u);
    EXPECT_EQ(first.workloadCacheHits, 9u);
    EXPECT_EQ(shared.snapshots(), 3u);
    EXPECT_EQ(shared.generated(), 3u);
    EXPECT_EQ(shared.hits(), 9u);

    SweepResult second = runner.run(s);
    EXPECT_EQ(second.workloadsGenerated, 0u);
    EXPECT_EQ(second.workloadCacheHits, 12u);
    EXPECT_EQ(shared.generated(), 3u);
    EXPECT_EQ(shared.hits(), 21u);

    SweepResult isolated =
        SweepRunner(1).cacheWorkloads(false).run(s);
    ASSERT_EQ(second.cells.size(), isolated.cells.size());
    for (std::size_t i = 0; i < second.cells.size(); ++i) {
        EXPECT_EQ(second.cells[i].stats, isolated.cells[i].stats)
            << second.cells[i].app << "/" << second.cells[i].config;
    }
}

namespace
{

/** One executed smallSweep as a comparable results doc. */
ResultDoc
smallDoc()
{
    Sweep s = smallSweep();
    return resultsOf({wrap(s, SweepRunner(1).run(s))});
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

TEST(CompareGate, LoadResultsRoundTripsTheJsonSink)
{
    Sweep s = smallSweep();
    FigureRun run = wrap(s, SweepRunner(1).run(s));
    std::ostringstream os;
    JsonSink().write(os, {run});
    ResultDoc loaded = loadResults(os.str());
    ResultDoc direct = resultsOf({run});
    ASSERT_EQ(loaded.figures.size(), 1u);
    ASSERT_EQ(loaded.figures[0].cells.size(),
              direct.figures[0].cells.size());
    for (std::size_t i = 0; i < loaded.figures[0].cells.size();
         ++i) {
        const ResultCell &a = loaded.figures[0].cells[i];
        const ResultCell &b = direct.figures[0].cells[i];
        EXPECT_EQ(a.counters, b.counters) << a.app << "/" << a.config;
        EXPECT_EQ(a.protocol, b.protocol);
        EXPECT_EQ(a.network, b.network);
        EXPECT_EQ(a.directory, b.directory);
        EXPECT_EQ(a.workload, b.workload);
    }
    std::ostringstream report;
    EXPECT_EQ(compareResults(loaded, direct, report), 0u);
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

TEST(JsonRoundTrip, CsvHasHeaderPlusOneRowPerCell)
{
    Sweep s = smallSweep();
    FigureRun run = wrap(s, SweepRunner(1).run(s));
    std::ostringstream os;
    CsvSink().write(os, {run});
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line))
        lines++;
    EXPECT_EQ(lines, 1 + run.result.cells.size());
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

TEST(FigureRegistry, HasAllSixteenFiguresWithUniqueNames)
{
    const auto &specs = figureSpecs();
    EXPECT_EQ(specs.size(), 16u);
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
    EXPECT_EQ(findFigure("fig6")->build({testScale}).size(), 40u);
    EXPECT_EQ(findFigure("fig7")->build({testScale}).size(), 60u);
    EXPECT_EQ(findFigure("fig8")->build({testScale}).size(), 40u);
    EXPECT_EQ(findFigure("fig9")->build({testScale}).size(), 50u);
    EXPECT_EQ(findFigure("fig5")->build({testScale}).size(), 10u);
    EXPECT_EQ(findFigure("table4")->build({testScale}).size(), 30u);
    EXPECT_EQ(findFigure("table2")->build({testScale}).size(), 0u);
    EXPECT_EQ(findFigure("eq3")->build({testScale}).size(), 4u);
    EXPECT_EQ(findFigure("ablation")->build({testScale}).size(), 30u);
    EXPECT_EQ(findFigure("micro")->build({testScale}).size(), 16u);
    // policies: two patterns x (one baseline + one cell per
    // registered protocol).
    EXPECT_EQ(findFigure("policies")->build({testScale}).size(),
              2u * (1u + ProtocolRegistry::global().size()));
}

TEST(FigureRegistry, PoliciesFigureHonorsProtocolSelection)
{
    FigureOptions opt;
    opt.scale = testScale;
    opt.protocols = {"rnuma", "rnuma-adaptive"};
    Sweep s = findFigure("policies")->build(opt);
    // Two patterns x (baseline + 2 selected).
    ASSERT_EQ(s.size(), 6u);
    EXPECT_EQ(s.cells()[0].app, "hot-reuse");
    EXPECT_EQ(s.cells()[1].proto.id, "rnuma");
    EXPECT_EQ(s.cells()[2].proto.id, "rnuma-adaptive");
    EXPECT_EQ(s.cells()[3].app, "evict-storm");
    EXPECT_EQ(s.cells()[4].proto.id, "rnuma");
    EXPECT_EQ(s.cells()[5].proto.id, "rnuma-adaptive");

    // Repeated and alias spellings dedupe to one cell per protocol
    // instead of tripping the duplicate-cell check.
    opt.protocols = {"rnuma", "R-NUMA", "rnuma"};
    Sweep dedup = findFigure("policies")->build(opt);
    ASSERT_EQ(dedup.size(), 4u); // 2 x (baseline + rnuma once)
    EXPECT_EQ(dedup.cells()[1].proto.id, "rnuma");
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
    FigureOptions opt;
    opt.scale = 0.1; // exactly the CI figure-pipeline scale
    opt.protocols = {"rnuma", "rnuma-hysteresis", "rnuma-adaptive"};
    const FigureSpec *spec = findFigure("policies");
    ASSERT_NE(spec, nullptr);
    FigureRun run = runFigure(*spec, opt, 0, /*verify=*/false);

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

    // The hot-reuse pattern still ties at this scale — that is the
    // documented limitation the second pattern exists to cover, and
    // it pins why the eviction cell may not regress into an
    // in-cache pattern.
    EXPECT_EQ(run.result.at("hot-reuse", "rnuma").stats,
              run.result.at("hot-reuse", "rnuma-hysteresis").stats);
}

TEST(FigureRegistry, FeedbackPolicyBeatsTheClassicsOnPhaseShift)
{
    // The point of the residency-feedback channel: a policy that
    // learns from eviction outcomes must beat every pre-feedback
    // policy on the phase-shift workload at exactly the CI
    // figure-pipeline scale. The online-model policy lowers its
    // global threshold as evictions report healthy residencies, so
    // it relocates earlier than the classics once phases churn.
    FigureOptions opt;
    opt.scale = 0.1;
    opt.protocols = {"rnuma", "rnuma-hysteresis", "rnuma-adaptive",
                     "rnuma-model", "rnuma-online-model"};
    const FigureSpec *spec = findFigure("feedback");
    ASSERT_NE(spec, nullptr);
    FigureRun run = runFigure(*spec, opt, 0, /*verify=*/false);

    // The fastest-churning row shows the widest separation.
    const RunStats &stat =
        run.result.at("shift-p12", "rnuma").stats;
    const RunStats &hyst =
        run.result.at("shift-p12", "rnuma-hysteresis").stats;
    const RunStats &adapt =
        run.result.at("shift-p12", "rnuma-adaptive").stats;
    const RunStats &model =
        run.result.at("shift-p12", "rnuma-model").stats;
    const RunStats &online =
        run.result.at("shift-p12", "rnuma-online-model").stats;
    EXPECT_LT(online.ticks, stat.ticks);
    EXPECT_LT(online.ticks, hyst.ticks);
    EXPECT_LT(online.ticks, adapt.ticks);
    EXPECT_LT(online.ticks, model.ticks);

    // The win comes from actually relocating, and the feedback
    // counters flow all the way into the figure's cells.
    EXPECT_GT(online.relocations, 0u);
    EXPECT_GT(online.evictedPageHits, 0u);
}

TEST(FigureRegistry, Fig8IsAPolicySweepOverStaticThresholds)
{
    // The threshold axis lives in the protocol spec, not in Params:
    // every fig8 cell runs the base machine configuration.
    Sweep s = findFigure("fig8")->build({testScale});
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
    FigureRun run = runFigure(*spec, {1.0}, 2, /*verify=*/true);
    std::ostringstream os;
    EXPECT_EQ(renderFigure(*spec, run, os), 0);
    EXPECT_NE(os.str().find("PASS"), std::string::npos);
}

TEST(FigureRegistry, MicroFigureRunsVerifiedAndRenders)
{
    const FigureSpec *spec = findFigure("micro");
    ASSERT_NE(spec, nullptr);
    FigureRun run = runFigure(*spec, {0.02}, 4, /*verify=*/true);
    EXPECT_EQ(run.result.cells.size(), 16u);
    std::ostringstream os;
    EXPECT_EQ(renderFigure(*spec, run, os), 0);
    EXPECT_NE(os.str().find("private-loop"), std::string::npos);
}

} // namespace rnuma::driver
