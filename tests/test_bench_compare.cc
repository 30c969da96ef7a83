/**
 * @file
 * Self-test for the measured-performance regression gate
 * (compareBench and the rnuma-bench/v1 artifact round-trip in
 * src/driver/compare.{hh,cc}): synthetic baseline/current artifact
 * pairs with injected events/sec drift and event-count drift must
 * produce the documented violation counts, the counters-only mode
 * (negative rate tolerance) must ignore rate drops entirely, and a
 * document must survive writeBench -> loadBench with every field
 * intact. This mirrors, at the unit level, the CI self-test that
 * feeds rnuma_bench corrupted artifacts and asserts its exit codes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "driver/compare.hh"

namespace rnuma::driver
{

namespace
{

BenchCell
cell(const std::string &app, const std::string &config,
     const std::string &protocol, std::uint64_t events,
     std::uint64_t ticks, std::uint64_t refs, double rate)
{
    BenchCell c;
    c.app = app;
    c.config = config;
    c.protocol = protocol;
    c.events = events;
    c.ticks = ticks;
    c.refs = refs;
    c.eventsPerInstruction =
        refs ? static_cast<double>(events) / static_cast<double>(refs)
             : 0.0;
    c.medianEventsPerSec = rate;
    return c;
}

/** A two-figure, three-cell artifact shaped like a real bench run. */
BenchDoc
sampleDoc()
{
    BenchDoc d;
    d.runs = 5;
    d.scale = 0.1;
    d.jobs = 1;

    BenchFigure f6;
    f6.name = "fig6";
    f6.scale = 0.1;
    f6.cells.push_back(
        cell("barnes", "R-NUMA", "rnuma", 120000, 90000, 40000,
             2.0e6));
    f6.cells.push_back(
        cell("em3d", "CC-NUMA", "ccnuma", 80000, 70000, 30000,
             1.5e6));
    d.figures.push_back(f6);

    BenchFigure f7;
    f7.name = "fig7";
    f7.scale = 0.1;
    f7.cells.push_back(
        cell("moldyn", "S-COMA", "scoma", 50000, 60000, 20000,
             1.0e6));
    d.figures.push_back(f7);
    return d;
}

std::size_t
diff(const BenchDoc &baseline, const BenchDoc &current,
     double ratePct, std::string *report = nullptr)
{
    BenchCompareOptions opt;
    opt.ratePct = ratePct;
    std::ostringstream os;
    std::size_t v = compareBench(baseline, current, opt, os);
    if (report)
        *report = os.str();
    return v;
}

} // namespace

TEST(BenchCompare, IdenticalDocumentsPass)
{
    BenchDoc base = sampleDoc();
    std::string report;
    EXPECT_EQ(diff(base, sampleDoc(), 8.0, &report), 0u);
    EXPECT_NE(report.find("bench-compare: PASS"), std::string::npos);
    EXPECT_NE(report.find("ok:   fig6"), std::string::npos);
    EXPECT_NE(report.find("ok:   fig7"), std::string::npos);
}

TEST(BenchCompare, EventCountDriftIsAHardFailure)
{
    // Counters are deterministic: a single-event difference fails
    // regardless of how generous the rate tolerance is.
    BenchDoc base = sampleDoc();
    BenchDoc cur = sampleDoc();
    cur.figures[0].cells[0].events += 1;
    std::string report;
    EXPECT_EQ(diff(base, cur, 1e9, &report), 1u);
    EXPECT_NE(report.find("events drifted"), std::string::npos);
    EXPECT_NE(report.find("bench-compare: FAIL (1 violation(s))"),
              std::string::npos);

    // Ticks and refs drift are equally fatal, and independent cells
    // accumulate independent violations.
    cur = sampleDoc();
    cur.figures[0].cells[1].ticks -= 1;
    cur.figures[1].cells[0].refs += 10;
    EXPECT_EQ(diff(base, cur, 8.0, &report), 2u);
    EXPECT_NE(report.find("ticks drifted"), std::string::npos);
    EXPECT_NE(report.find("refs drifted"), std::string::npos);
}

TEST(BenchCompare, RateDropBeyondToleranceFails)
{
    BenchDoc base = sampleDoc();
    // A 20% throughput drop on one cell: outside the 8% default.
    BenchDoc cur = sampleDoc();
    cur.figures[0].cells[0].medianEventsPerSec *= 0.8;
    std::string report;
    EXPECT_EQ(diff(base, cur, 8.0, &report), 1u);
    EXPECT_NE(report.find("median events/sec regressed"),
              std::string::npos);

    // The same drop within a wider tolerance passes.
    EXPECT_EQ(diff(base, cur, 25.0), 0u);

    // A drop just inside the tolerance passes (5% < 8%).
    cur = sampleDoc();
    cur.figures[0].cells[0].medianEventsPerSec *= 0.95;
    EXPECT_EQ(diff(base, cur, 8.0), 0u);

    // Improvements never fail, even at zero tolerance.
    cur = sampleDoc();
    for (BenchFigure &f : cur.figures)
        for (BenchCell &c : f.cells)
            c.medianEventsPerSec *= 3.0;
    EXPECT_EQ(diff(base, cur, 0.0), 0u);
}

TEST(BenchCompare, NegativeToleranceIsCountersOnly)
{
    // CI mode: shared runners make rates incomparable, so a negative
    // tolerance must ignore even a catastrophic slowdown...
    BenchDoc base = sampleDoc();
    BenchDoc cur = sampleDoc();
    for (BenchFigure &f : cur.figures)
        for (BenchCell &c : f.cells)
            c.medianEventsPerSec *= 0.01;
    std::string report;
    EXPECT_EQ(diff(base, cur, -1.0, &report), 0u);
    EXPECT_EQ(report.find("events/sec"), std::string::npos);

    // ...while counter drift still fails.
    cur.figures[1].cells[0].events += 7;
    EXPECT_EQ(diff(base, cur, -1.0), 1u);
}

TEST(BenchCompare, RatesAreSkippedWhenJobsDiffer)
{
    // Throughput measured at different sweep concurrency is not
    // comparable; the gate notes that and checks counters only.
    BenchDoc base = sampleDoc();
    BenchDoc cur = sampleDoc();
    cur.jobs = 4;
    for (BenchFigure &f : cur.figures)
        for (BenchCell &c : f.cells)
            c.medianEventsPerSec *= 0.1;
    std::string report;
    EXPECT_EQ(diff(base, cur, 8.0, &report), 0u);
    EXPECT_NE(report.find("events/sec check skipped"),
              std::string::npos);
}

TEST(BenchCompare, CoverageLossIsAViolation)
{
    BenchDoc base = sampleDoc();

    // A whole figure disappearing.
    BenchDoc cur = sampleDoc();
    cur.figures.pop_back();
    std::string report;
    EXPECT_EQ(diff(base, cur, 8.0, &report), 1u);
    EXPECT_NE(report.find("fig7: figure missing"), std::string::npos);

    // A single cell disappearing.
    cur = sampleDoc();
    cur.figures[0].cells.pop_back();
    EXPECT_EQ(diff(base, cur, 8.0, &report), 1u);
    EXPECT_NE(report.find("cell missing"), std::string::npos);

    // A scale change makes the whole figure incomparable: one
    // violation, and its cells are not diffed at all.
    cur = sampleDoc();
    cur.figures[0].scale = 0.2;
    cur.figures[0].cells[0].events += 999;
    EXPECT_EQ(diff(base, cur, 8.0, &report), 1u);
    EXPECT_NE(report.find("scale changed"), std::string::npos);

    // New cells and figures in current are notes, not violations.
    cur = sampleDoc();
    cur.figures[0].cells.push_back(
        cell("ocean", "R-NUMA", "rnuma", 1, 1, 1, 1.0));
    BenchFigure extra;
    extra.name = "fig99";
    extra.scale = 0.1;
    cur.figures.push_back(extra);
    EXPECT_EQ(diff(base, cur, 8.0, &report), 0u);
    EXPECT_NE(report.find("is new (not in baseline)"),
              std::string::npos);
}

TEST(BenchCompare, ArtifactRoundTripsThroughWriteAndLoad)
{
    BenchDoc doc = sampleDoc();
    std::ostringstream os;
    writeBench(os, doc);
    BenchDoc back = loadBench(os.str());

    EXPECT_EQ(back.runs, doc.runs);
    EXPECT_EQ(back.scale, doc.scale);
    EXPECT_EQ(back.jobs, doc.jobs);
    ASSERT_EQ(back.figures.size(), doc.figures.size());
    for (std::size_t fi = 0; fi < doc.figures.size(); ++fi) {
        const BenchFigure &a = doc.figures[fi];
        const BenchFigure &b = back.figures[fi];
        EXPECT_EQ(b.name, a.name);
        EXPECT_EQ(b.scale, a.scale);
        ASSERT_EQ(b.cells.size(), a.cells.size()) << a.name;
        for (std::size_t ci = 0; ci < a.cells.size(); ++ci) {
            const BenchCell &x = a.cells[ci];
            const BenchCell &y = b.cells[ci];
            EXPECT_EQ(y.app, x.app);
            EXPECT_EQ(y.config, x.config);
            EXPECT_EQ(y.protocol, x.protocol);
            EXPECT_EQ(y.events, x.events);
            EXPECT_EQ(y.ticks, x.ticks);
            EXPECT_EQ(y.refs, x.refs);
            // Doubles survive the %.17g writer exactly.
            EXPECT_EQ(y.eventsPerInstruction,
                      x.eventsPerInstruction);
            EXPECT_EQ(y.medianEventsPerSec, x.medianEventsPerSec);
        }
    }
    // And a round-tripped document diffs clean against the original.
    std::ostringstream report;
    EXPECT_EQ(compareBench(doc, back, BenchCompareOptions{}, report),
              0u);
}

TEST(BenchCompare, LoaderRejectsForeignDocuments)
{
    EXPECT_THROW(loadBench("{\"schema\": \"rnuma-sweep-results/v4\", "
                           "\"figures\": []}"),
                 std::runtime_error);
    EXPECT_THROW(loadBench("{\"figures\": []}"), std::runtime_error);
    EXPECT_THROW(
        loadBench("{\"schema\": \"rnuma-bench/v1\", \"runs\": 5}"),
        std::runtime_error);
    EXPECT_THROW(loadBench("{\"schema\": \"rnuma-bench/v0\", "
                           "\"figures\": []}"),
                 std::runtime_error);
}

TEST(BenchCompare, LoaderRejectsCountsACastCannotHold)
{
    // Negative, fractional, or >= 2^64 counters are diagnostics
    // naming the cell and field, not undefined double-to-integer
    // casts.
    BenchDoc doc = sampleDoc();
    std::ostringstream os;
    writeBench(os, doc);
    const std::string good = os.str();
    const std::string field = "\"refs\": 30000";
    ASSERT_NE(good.find(field), std::string::npos);
    for (const char *bad : {"-30000", "0.5", "1e30"}) {
        std::string text = good;
        text.replace(text.find(field), field.size(),
                     std::string("\"refs\": ") + bad);
        try {
            loadBench(text);
            ADD_FAILURE() << "refs " << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("fig6/em3d/CC-NUMA"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("'refs'"), std::string::npos) << msg;
        }
    }
    std::string runs = good;
    runs.replace(runs.find("\"runs\": 5"), 9, "\"runs\": -5");
    EXPECT_THROW(loadBench(runs), std::runtime_error);
}

} // namespace rnuma::driver
