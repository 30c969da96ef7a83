/**
 * @file
 * Self-tests of the benchmark itself:
 *
 *  - the tracing wrappers leave RunStats bit-identical to the
 *    unwrapped run, for every pinned protocol on the constant and
 *    mesh-2d networks;
 *  - an injected counter drift makes the output check fail;
 *  - the self times of one cell's span tree add up to its traced run
 *    time;
 *  - the pinned counters file covers exactly the benchmark's cells.
 *
 *   perfbench_selftest [EXPECTED_FILE]    (run.py --selftest)
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <string>

#include "bench.hh"
#include "trace.hh"

namespace
{

using namespace perfbench;
using rnuma::Params;
using rnuma::RunStats;

int failures = 0;

#define CHECK(cond)                                                     \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::cerr << __FILE__ << ':' << __LINE__                    \
                      << ": CHECK failed: " #cond "\n";                 \
            ++failures;                                                 \
        }                                                               \
    } while (0)

const char *const pinnedProtocols[] = {
    "ccnuma",      "scoma",         "rnuma",
    "rnuma-hysteresis", "rnuma-adaptive", "rnuma-model",
    "rnuma-utility",    "rnuma-online-model", "rnuma-ewma"};

/** Small cells: a relocation-heavy and a sharing-heavy generator. */
std::vector<Cell>
smallCells(const std::string &network, std::size_t nodes)
{
    Params p = Params::base();
    p.numNodes = nodes;
    p.networkModel = network;
    std::vector<Cell> cells;
    for (const char *proto : pinnedProtocols) {
        cells.push_back({"shift", "phase-shift",
                         "pages=240,phases=3,sweeps=2", 1.0, p, p,
                         proto});
        cells.push_back({"zipf", "zipf-serve",
                         "pages=16,theta=0.6,write=0.3,requests=40",
                         1.0, p, p, proto});
    }
    return cells;
}

void
testWrappersArePassThrough()
{
    tracer().clear();
    for (const auto &net : {std::make_pair("constant", 8),
                            std::make_pair("mesh-2d", 16)}) {
        for (const Cell &c : smallCells(net.first, net.second)) {
            RunStats plain = runCell(c, 3, false).stats;
            RunStats traced = runCell(c, 3, true).stats;
            if (plain != traced)
                std::cerr << "  drift: " << net.first << ' ' << c.name
                          << ' ' << c.protocol << '\n';
            CHECK(plain == traced);
            CHECK(plain.refs > 0);
        }
    }
    // Every wrapped boundary was crossed.
    const LayerTotals &t = tracer().totals();
    for (Layer l : {Layer::SimRun, Layer::RadLocal, Layer::RadRemote,
                    Layer::RadInvalidate, Layer::RadWriteback,
                    Layer::CorePolicy, Layer::NetSend, Layer::NetPost})
        CHECK(t.callsOf(l) > 0);
}

void
testDriftFailsTheCheck(const std::string &path)
{
    Params p = Params::base();
    p.relocationThreshold = 4; // relocate within a short run
    Cell c{"shift", "phase-shift", "pages=240,phases=3,sweeps=2", 1.0,
           p, p, "rnuma"};
    CellEvidence e;
    e.first = runCell(c, 1, false).stats;
    e.traced = runCell(c, 1, true).stats;
    e.generatedRefs = generatedRefs(c, 1);
    Counters pinned = countersOf(e.first);
    e.expected = &pinned;
    CHECK(checkCell(e).empty());
    CHECK(e.first.relocations > 0);

    // A pinned counter drifts.
    Counters drifted = pinned;
    drifted.events += 1;
    e.expected = &drifted;
    CHECK(checkCell(e).size() == 1);
    e.expected = &pinned;

    // The traced pass drifts.
    RunStats saved = e.traced;
    e.traced.ticks += 1;
    CHECK(checkCell(e).size() == 1);
    e.traced = saved;

    // A repeated pass drifted.
    e.repeatsIdentical = false;
    CHECK(checkCell(e).size() == 1);
    e.repeatsIdentical = true;

    // Remote fetches no longer split into their three kinds.
    e.first.refetches += 1;
    e.traced = e.first;
    CHECK(checkCell(e).size() == 1);
    e.first.refetches -= 1;
    e.traced = e.first;

    // References lost between the generator and the machine.
    e.generatedRefs += 1;
    CHECK(checkCell(e).size() == 1);
    e.generatedRefs -= 1;
    CHECK(checkCell(e).empty());

    // The pinned-counters file round-trips, and drift in it shows.
    ExpectedCounters parsed;
    {
        std::ofstream os(path);
        os << expectedLine("w", c, pinned) << '\n';
    }
    CHECK(readExpected(path, parsed));
    CHECK(parsed.count("w/shift") == 1 && parsed["w/shift"] == pinned);
    std::remove(path.c_str());
}

void
testSpanTreeAddsUp()
{
    Params p = Params::base();
    Cell c{"zipf", "zipf-serve",
           "pages=16,theta=0.6,write=0.3,requests=40", 1.0, p, p,
           "rnuma"};
    tracer().clear();
    tracer().setSpanCap(1u << 22);
    CellRun r = runCell(c, 1, true, 7);
    const SpanTreeCheck t = checkSpanTree(tracer().spans(), 7);
    CHECK(tracer().dropped() == 0);
    CHECK(t.nested);
    CHECK(t.rootNs > 0);
    CHECK(t.selfSumNs == t.rootNs);
    // The root span is the run the cell timed.
    CHECK(std::fabs(t.rootNs * 1e-9 - r.runS) <= 0.01 * r.runS + 1e-4);
    // The online totals agree with the recomputed tree.
    for (std::size_t l = 0; l < numLayers; ++l) {
        CHECK(t.totals.calls[l] == tracer().totals().calls[l]);
        CHECK(t.totals.selfNs[l] == tracer().totals().selfNs[l]);
    }
    tracer().setSpanCap(0);
    tracer().clear();
}

void
testExpectedCoversEveryCell(const std::string &path)
{
    ExpectedCounters expected;
    CHECK(readExpected(path, expected));
    std::set<std::string> keys;
    for (const std::string &w : workloadNames()) {
        std::vector<Cell> cells = workloadCells(w);
        CHECK(!cells.empty());
        for (const Cell &c : cells) {
            const std::string key = w + "/" + c.name;
            CHECK(keys.insert(key).second); // names are unique
            CHECK(expected.count(key) == 1);
        }
    }
    CHECK(keys.size() == expected.size());
}

} // namespace

int
main(int argc, char **argv)
{
    testWrappersArePassThrough();
    testDriftFailsTheCheck(std::string(argv[0]) + ".expected.tsv");
    testSpanTreeAddsUp();
    if (argc > 1)
        testExpectedCoversEveryCell(argv[1]);
    std::cout << (failures ? "perfbench self-tests FAILED: "
                           : "perfbench self-tests passed")
              << (failures ? std::to_string(failures) : "") << '\n';
    return failures ? 1 : 0;
}
