/**
 * @file
 * Tests for the sweep driver (src/driver): serial-vs-parallel
 * RunStats determinism across thread counts, the content-addressed
 * workload cache (hit/miss accounting, opt-out bit-identity, key
 * semantics), the perf-baseline compare gate (exact ticks/events,
 * thresholded wall time, v1 baselines), JSON round-trip of a small
 * executed sweep, sweep declaration invariants, and the unknown-app
 * / empty-sweep error paths. Uses the tiny test_util.hh machine so
 * the suites stay fast.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/compare.hh"
#include "driver/figures.hh"
#include "driver/json.hh"
#include "driver/result_sink.hh"
#include "driver/sweep.hh"
#include "driver/sweep_runner.hh"
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
    }
}

TEST(SweepRunnerTest, VerifyDetectsTamperedStats)
{
    Sweep s = smallSweep();
    SweepResult r = SweepRunner(1).run(s);
    r.cells[3].stats.ticks += 1;
    EXPECT_THROW(verifySerialIdentical(s, r), std::logic_error);
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
    EXPECT_EQ(doc.get("schema")->str, "rnuma-sweep-results/v8");

    const JsonValue *figures = doc.get("figures");
    ASSERT_NE(figures, nullptr);
    ASSERT_TRUE(figures->isArray());
    ASSERT_EQ(figures->array.size(), 1u);

    const JsonValue &fig = figures->array[0];
    EXPECT_EQ(fig.get("name")->str, "small");

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
    WorkloadFactory make = appFactory("moldyn", p, testScale);
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
            OpaqueWorkload>(makeApp("moldyn", p, testScale)));
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
    FigureRun run = wrap(s, SweepRunner(1).run(s));
    run.wallMs = 100.0; // deterministic wall time for the tests
    return resultsOf({run});
}

} // namespace

TEST(CompareGate, IdenticalResultsPass)
{
    ResultDoc doc = smallDoc();
    std::ostringstream os;
    EXPECT_EQ(compareResults(doc, doc, CompareOptions{}, os), 0u);
    EXPECT_NE(os.str().find("compare: PASS"), std::string::npos);
}

TEST(CompareGate, TicksDriftFailsExactly)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].cells[3].ticks += 1;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{}, os), 1u);
    EXPECT_NE(os.str().find("ticks drifted"), std::string::npos);
}

TEST(CompareGate, EventsDriftFails)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].cells[0].events += 5;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{}, os), 1u);
    EXPECT_NE(os.str().find("events drifted"), std::string::npos);
}

TEST(CompareGate, MissingCellAndFigureAreViolations)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].cells.pop_back();
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{}, os), 1u);

    ResultDoc none;
    none.schema = base.schema;
    std::ostringstream os2;
    EXPECT_EQ(compareResults(base, none, CompareOptions{}, os2), 1u);
    EXPECT_NE(os2.str().find("figure missing"), std::string::npos);
}

TEST(CompareGate, ScaleMismatchIsAViolation)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].scale *= 2;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{}, os), 1u);
    EXPECT_NE(os.str().find("scale changed"), std::string::npos);

    // Serialization rounding must not count as a mismatch: pre-v2
    // baselines carried %.6g-truncated scales.
    cur.figures[0].scale =
        base.figures[0].scale * (1.0 + 1e-7);
    std::ostringstream os2;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{}, os2), 0u);
}

TEST(CompareGate, WallTimeThresholdedNotExact)
{
    ResultDoc base = smallDoc();
    ResultDoc cur = base;
    cur.figures[0].wallMs = base.figures[0].wallMs * 1.2;
    CompareOptions opt;
    opt.wallTolerancePct = 25.0;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, opt, os), 0u);

    cur.figures[0].wallMs = base.figures[0].wallMs * 1.3;
    std::ostringstream os2;
    EXPECT_EQ(compareResults(base, cur, opt, os2), 1u);
    EXPECT_NE(os2.str().find("wall time regressed"),
              std::string::npos);

    // Negative tolerance: determinism checks only.
    opt.wallTolerancePct = -1;
    std::ostringstream os3;
    EXPECT_EQ(compareResults(base, cur, opt, os3), 0u);

    // Different job counts: wall check skipped with a note.
    opt.wallTolerancePct = 25.0;
    cur.figures[0].jobs = base.figures[0].jobs + 1;
    std::ostringstream os4;
    EXPECT_EQ(compareResults(base, cur, opt, os4), 0u);
    EXPECT_NE(os4.str().find("wall-time check skipped"),
              std::string::npos);
}

TEST(CompareGate, LoadResultsRoundTripsTheJsonSink)
{
    Sweep s = smallSweep();
    FigureRun run = wrap(s, SweepRunner(1).run(s));
    std::ostringstream os;
    JsonSink().write(os, {run});
    ResultDoc loaded = loadResults(os.str());
    EXPECT_EQ(loaded.schema, "rnuma-sweep-results/v8");
    ResultDoc direct = resultsOf({run});
    EXPECT_EQ(loaded.figures[0].protocols,
              direct.figures[0].protocols);
    EXPECT_EQ(loaded.figures[0].protocols,
              protocolsOf(run.result));
    ASSERT_EQ(loaded.figures.size(), 1u);
    ASSERT_EQ(loaded.figures[0].cells.size(),
              direct.figures[0].cells.size());
    for (std::size_t i = 0; i < loaded.figures[0].cells.size();
         ++i) {
        const ResultCell &a = loaded.figures[0].cells[i];
        const ResultCell &b = direct.figures[0].cells[i];
        EXPECT_EQ(a.ticks, b.ticks) << a.app << "/" << a.config;
        EXPECT_EQ(a.events, b.events) << a.app << "/" << a.config;
        EXPECT_TRUE(a.hasEvents);
    }
    std::ostringstream report;
    EXPECT_EQ(
        compareResults(loaded, direct, CompareOptions{-1}, report),
        0u);
}

TEST(CompareGate, AcceptsV1BaselinesWithoutEvents)
{
    // A v1 document has no per-cell events; only ticks are diffed.
    const char *v1 =
        "{\"schema\": \"rnuma-sweep-results/v1\", \"figures\": ["
        "{\"name\": \"small\", \"scale\": 0.05, \"jobs\": 1,"
        " \"wall_ms\": 10.0, \"status\": 0, \"cells\": ["
        "{\"app\": \"moldyn\", \"config\": \"ccnuma\","
        " \"wall_ms\": 1.0, \"stats\": {\"ticks\": 42}}]}]}";
    ResultDoc base = loadResults(v1);
    ASSERT_EQ(base.figures.size(), 1u);
    EXPECT_FALSE(base.figures[0].cells[0].hasEvents);

    ResultDoc cur = base;
    cur.figures[0].cells[0].events = 7; // ignored: baseline has none
    cur.figures[0].cells[0].hasEvents = true;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{}, os), 0u);

    cur.figures[0].cells[0].ticks = 43;
    std::ostringstream os2;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{}, os2), 1u);
}

TEST(CompareGate, ProtocolShimAcceptsEnumEraBaselines)
{
    // A v2 baseline carries enum-era display names; after the load
    // shim they canonicalize to registry ids, and an id change
    // against a pre-v3 baseline is a note, never a violation.
    const char *v2 =
        "{\"schema\": \"rnuma-sweep-results/v2\", \"figures\": ["
        "{\"name\": \"small\", \"scale\": 0.05, \"jobs\": 1,"
        " \"wall_ms\": 10.0, \"status\": 0, \"cells\": ["
        "{\"app\": \"moldyn\", \"config\": \"t16\","
        " \"protocol\": \"R-NUMA\", \"wall_ms\": 1.0,"
        " \"stats\": {\"ticks\": 42}}]}]}";
    ResultDoc base = loadResults(v2);
    EXPECT_EQ(base.version(), 2);
    EXPECT_EQ(base.figures[0].cells[0].protocol, "rnuma");

    ResultDoc cur = base;
    cur.schema = "rnuma-sweep-results/v3";
    cur.figures[0].cells[0].protocol = "rnuma-t16";
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{-1}, os), 0u);
    EXPECT_NE(os.str().find("label shim only"), std::string::npos);

    // Both v3: a protocol change is genuine drift.
    ResultDoc base3 = base;
    base3.schema = "rnuma-sweep-results/v3";
    std::ostringstream os2;
    EXPECT_EQ(compareResults(base3, cur, CompareOptions{-1}, os2),
              1u);
    EXPECT_NE(os2.str().find("protocol changed"),
              std::string::npos);
}

TEST(CompareGate, ReconstructsProtocolsForPreV4Baselines)
{
    // A v3 document has no per-figure protocols array; the loader
    // rebuilds it from the cells (canonicalized, first-appearance
    // order) so v4-era consumers work against old baselines, and a
    // v3 baseline still diffs cleanly against v4 results.
    const char *v3 =
        "{\"schema\": \"rnuma-sweep-results/v3\", \"figures\": ["
        "{\"name\": \"small\", \"scale\": 0.05, \"jobs\": 1,"
        " \"wall_ms\": 10.0, \"status\": 0, \"cells\": ["
        "{\"app\": \"a\", \"config\": \"baseline\","
        " \"protocol\": \"ccnuma\", \"stats\": {\"ticks\": 7}},"
        "{\"app\": \"a\", \"config\": \"rnuma\","
        " \"protocol\": \"R-NUMA\", \"stats\": {\"ticks\": 9}},"
        "{\"app\": \"b\", \"config\": \"rnuma\","
        " \"protocol\": \"rnuma\", \"stats\": {\"ticks\": 5}}]}]}";
    ResultDoc base = loadResults(v3);
    ASSERT_EQ(base.figures.size(), 1u);
    std::vector<std::string> expected{"ccnuma", "rnuma"};
    EXPECT_EQ(base.figures[0].protocols, expected);

    ResultDoc cur = base;
    cur.schema = "rnuma-sweep-results/v4";
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{-1}, os), 0u);
}

TEST(CompareGate, FeedbackCountersGateOnlyBetweenV8Documents)
{
    // v8 added the residency-feedback counters. Between two v8
    // documents a drift is a violation; against a v7-shaped
    // baseline (counters absent) the check degrades to a note so
    // old perf baselines keep passing.
    const char *v8 =
        "{\"schema\": \"rnuma-sweep-results/v8\", \"figures\": ["
        "{\"name\": \"small\", \"scale\": 0.05, \"jobs\": 1,"
        " \"wall_ms\": 10.0, \"status\": 0, \"cells\": ["
        "{\"app\": \"moldyn\", \"config\": \"rnuma\","
        " \"protocol\": \"rnuma\", \"wall_ms\": 1.0,"
        " \"stats\": {\"ticks\": 42, \"evictions_zero_hit\": 3,"
        " \"evicted_page_hits\": 90}}]}]}";
    ResultDoc base = loadResults(v8);
    ASSERT_EQ(base.version(), 8);

    ResultDoc cur = base;
    cur.figures[0].cells[0].counters["evictions_zero_hit"] = 5;
    std::ostringstream os;
    EXPECT_EQ(compareResults(base, cur, CompareOptions{-1}, os), 1u);
    EXPECT_NE(os.str().find("evictions_zero_hit drifted"),
              std::string::npos);

    // Same drift against a v7 baseline without the counters: the
    // keys are absent on one side, so nothing diffs at all.
    ResultDoc old = base;
    old.schema = "rnuma-sweep-results/v7";
    old.figures[0].cells[0].counters.erase("evictions_zero_hit");
    old.figures[0].cells[0].counters.erase("evicted_page_hits");
    std::ostringstream os2;
    EXPECT_EQ(compareResults(old, cur, CompareOptions{-1}, os2), 0u);

    // A v7 baseline that somehow carries the counters (hand-edited
    // or transitional): a mismatch is reported, but as a note.
    ResultDoc noted = base;
    noted.schema = "rnuma-sweep-results/v7";
    std::ostringstream os3;
    EXPECT_EQ(compareResults(noted, cur, CompareOptions{-1}, os3),
              0u);
    EXPECT_NE(os3.str().find("feedback counters not comparable"),
              std::string::npos);
}

TEST(CompareGate, RejectsForeignJson)
{
    EXPECT_THROW(loadResults("{\"schema\": \"other/v1\"}"),
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
