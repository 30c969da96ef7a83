/**
 * @file
 * The benchmark binary. One process runs one workload on one thread:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --expected FILE --out-dir DIR [--dump-expected FILE]
 *
 * It first makes a traced pass over every cell (the warm-up, and the
 * traced half of the output check), then repeats untraced passes
 * until S seconds have passed (at least minPasses). Run times are
 * per-cell medians over those passes, set-up times medians over
 * passes. Before every untraced cell run the Yardstick loop is timed
 * once, and every end-to-end time is scaled by yardstickNominalS over
 * the median round: other tenants of a shared host slow the simulator
 * and the yardstick together for tens of seconds at a time, and the
 * scaled times spread between runs about half as much as the raw
 * ones. Raw times are printed beside them. With --trace 1 each
 * untraced pass is followed by a traced one, and the per-layer metrics
 * come from the traced passes.
 *
 * The last stdout line is the JSON result object (correct, attempted,
 * failed, metrics); a copy stamped with the host fingerprint goes to
 * DIR, and with --trace 1 the kept spans too.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "trace.hh"

namespace
{

using namespace perfbench;
using rnuma::RunStats;

/** Passes every median is taken over, whatever --seconds says. */
constexpr int minPasses = 3;

/** Span records kept in memory by a --trace 1 run. */
constexpr std::size_t spanCap = 250000;

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string expected;
    std::string outDir;
    std::string dumpExpected;
};

int
usage()
{
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --expected FILE --out-dir DIR "
                 "[--dump-expected FILE]\nworkloads:";
    for (const std::string &w : workloadNames())
        std::cerr << ' ' << w;
    std::cerr << '\n';
    return 2;
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
        } else if (flag == "--expected") {
            o.expected = v;
        } else if (flag == "--out-dir") {
            o.outDir = v;
        } else if (flag == "--dump-expected") {
            o.dumpExpected = v;
        } else {
            return false;
        }
        if (end && (*end != '\0' || v.empty()))
            return false;
    }
    return !o.workload.empty() && !o.outDir.empty() && o.seconds >= 0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** One printed metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer deltas of one traced pass. */
LayerTotals
minus(const LayerTotals &a, const LayerTotals &b)
{
    LayerTotals d;
    for (std::size_t l = 0; l < numLayers; ++l) {
        d.calls[l] = a.calls[l] - b.calls[l];
        d.selfNs[l] = a.selfNs[l] - b.selfNs[l];
    }
    return d;
}

/** Fastest traced pass's self ns per call of a layer. */
double
minNsPerCall(const std::vector<LayerTotals> &passes, Layer l)
{
    std::vector<double> v;
    for (const LayerTotals &t : passes)
        v.push_back(ratio(static_cast<double>(t.selfNsOf(l)),
                          static_cast<double>(t.callsOf(l))));
    return *std::min_element(v.begin(), v.end());
}

std::string
joined(const std::vector<double> &v)
{
    std::ostringstream os;
    os << std::setprecision(9);
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    return os.str();
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << std::setprecision(12) << '{';
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << metrics[i].value
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << '}';
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parse(argc, argv, o))
        return usage();
    const std::vector<Cell> cells = workloadCells(o.workload);
    if (cells.empty())
        return usage();

    ExpectedCounters expected;
    const bool pinned = o.seed == defaultSeed && o.dumpExpected.empty();
    if (pinned && !readExpected(o.expected, expected)) {
        std::cerr << "perfbench: cannot read expected counters from '"
                  << o.expected << "'\n";
        return 2;
    }

    const std::size_t n = cells.size();
    tracer().setSpanCap(o.trace ? spanCap : 0);
    using clock = std::chrono::steady_clock;

    // The traced pass: warms every lazily built structure before
    // timing starts and records the counters the untraced passes
    // must reproduce.
    std::vector<CellEvidence> ev(n);
    for (std::size_t i = 0; i < n; ++i) {
        ev[i].generatedRefs = generatedRefs(cells[i], o.seed);
        ev[i].traced = runCell(cells[i], o.seed, true,
                               static_cast<std::uint32_t>(i)).stats;
        if (pinned) {
            auto it = expected.find(o.workload + "/" + cells[i].name);
            if (it != expected.end())
                ev[i].expected = &it->second;
        }
    }

    Yardstick yardstick;
    for (int i = 0; i < 10; ++i)
        yardstick.measure();

    std::vector<std::vector<double>> runS(n), tracedRunS(n);
    std::vector<double> setupS, generateS, constructS, yardS;
    std::vector<LayerTotals> layerPasses;
    const auto deadline =
        clock::now() + std::chrono::duration<double>(o.seconds);
    int passes = 0;
    do {
        double gen = 0, construct = 0;
        for (std::size_t i = 0; i < n; ++i) {
            yardS.push_back(yardstick.measure());
            CellRun r = runCell(cells[i], o.seed, false);
            if (passes == 0)
                ev[i].first = std::move(r.stats);
            else if (r.stats != ev[i].first)
                ev[i].repeatsIdentical = false;
            runS[i].push_back(r.runS);
            gen += r.generateS;
            construct += r.constructS;
        }
        generateS.push_back(gen);
        constructS.push_back(construct);
        setupS.push_back(gen + construct);
        if (o.trace) {
            const LayerTotals before = tracer().totals();
            for (std::size_t i = 0; i < n; ++i) {
                CellRun r = runCell(cells[i], o.seed, true,
                                    static_cast<std::uint32_t>(i));
                if (r.stats != ev[i].traced)
                    ev[i].repeatsIdentical = false;
                tracedRunS[i].push_back(r.runS);
            }
            layerPasses.push_back(minus(tracer().totals(), before));
        }
        ++passes;
    } while (passes < minPasses || clock::now() < deadline);

    // Output check and simulated totals.
    std::size_t failed = 0;
    RunStats sum;
    double runTotal = 0, tracedTotal = 0, slowest = 0;
    std::vector<double> cellRun(n);
    const double yardMedian = median(yardS);
    const double scale = yardstickNominalS / yardMedian;
    for (std::size_t i = 0; i < n; ++i) {
        const std::vector<std::string> whys = checkCell(ev[i]);
        for (const std::string &why : whys)
            std::cout << "FAIL " << cells[i].name << ": " << why << '\n';
        failed += whys.empty() ? 0 : 1;
        const RunStats &s = ev[i].first;
        sum.refs += s.refs;
        sum.events += s.events;
        sum.l1Hits += s.l1Hits;
        sum.l1Misses += s.l1Misses;
        sum.busWait += s.busWait;
        sum.niWait += s.niWait;
        sum.blockCacheHits += s.blockCacheHits;
        sum.pageCacheHits += s.pageCacheHits;
        sum.remoteFetches += s.remoteFetches;
        sum.refetches += s.refetches;
        sum.invalidationsSent += s.invalidationsSent;
        sum.dirEntries += s.dirEntries;
        sum.dirBits += s.dirBits;
        sum.relocations += s.relocations;
        sum.scomaReplacements += s.scomaReplacements;
        sum.evictionsZeroHit += s.evictionsZeroHit;
        for (std::size_t k = 0; k < rnuma::numMsgKinds; ++k)
            sum.net.messages[k] += s.net.messages[k];
        cellRun[i] = median(runS[i]);
        runTotal += cellRun[i];
        slowest = std::max(slowest, cellRun[i]);
        if (o.trace)
            tracedTotal += median(tracedRunS[i]);
    }
    const double refs = static_cast<double>(sum.refs);

    std::vector<Metric> metrics;
    if (!o.trace) {
        metrics = {
            {"refs_per_s", ratio(refs, runTotal * scale), "1/s"},
            {"slowest_cell_s", slowest * scale, "s"},
            {"setup_s", median(setupS) * scale, "s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    } else {
        const LayerTotals &last = layerPasses.back();
        auto count = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        std::vector<double> simSelf;
        for (const LayerTotals &t : layerPasses)
            simSelf.push_back(
                ratio(count(t.selfNsOf(Layer::SimRun)), refs));
        const double msgs = count(sum.net.totalMessages());
        const double fetches = count(sum.remoteFetches);
        metrics = {
            {"workload.generate_s", median(generateS), "s"},
            {"sim.construct_s", median(constructS), "s"},
            {"sim.self_ns_per_ref",
             *std::min_element(simSelf.begin(), simSelf.end()),
             "ns/ref"},
            {"sim.events_per_ref", ratio(count(sum.events), refs),
             "events/ref"},
            {"mem.l1_hit_ratio", ratio(count(sum.l1Hits), refs),
             "ratio"},
            {"mem.bus_wait_per_miss",
             ratio(count(sum.busWait), count(sum.l1Misses)),
             "cycles/miss"},
            {"rad.local_calls", count(last.callsOf(Layer::RadLocal)),
             "count"},
            {"rad.local_ns",
             minNsPerCall(layerPasses, Layer::RadLocal), "ns/call"},
            {"rad.remote_calls", count(last.callsOf(Layer::RadRemote)),
             "count"},
            {"rad.remote_ns",
             minNsPerCall(layerPasses, Layer::RadRemote), "ns/call"},
            {"rad.invalidate_calls",
             count(last.callsOf(Layer::RadInvalidate)), "count"},
            {"rad.invalidate_ns",
             minNsPerCall(layerPasses, Layer::RadInvalidate),
             "ns/call"},
            {"rad.writeback_calls",
             count(last.callsOf(Layer::RadWriteback)), "count"},
            {"rad.writeback_ns",
             minNsPerCall(layerPasses, Layer::RadWriteback),
             "ns/call"},
            {"rad.block_cache_hits", count(sum.blockCacheHits), "count"},
            {"rad.page_cache_hits", count(sum.pageCacheHits), "count"},
            {"proto.remote_fetches", fetches, "count"},
            {"proto.refetch_share", ratio(count(sum.refetches), fetches),
             "ratio"},
            {"proto.invalidations_per_fetch",
             ratio(count(sum.invalidationsSent), fetches), "inv/fetch"},
            {"proto.dir_bits_per_entry",
             ratio(count(sum.dirBits), count(sum.dirEntries)),
             "bits/entry"},
            {"core.policy_calls", count(last.callsOf(Layer::CorePolicy)),
             "count"},
            {"core.policy_ns",
             minNsPerCall(layerPasses, Layer::CorePolicy), "ns/call"},
            {"os.relocations", count(sum.relocations), "count"},
            {"os.replacements", count(sum.scomaReplacements), "count"},
            // No replacement means no wasted residency.
            {"os.useful_eviction_ratio",
             sum.scomaReplacements
                 ? 1.0 - ratio(count(sum.evictionsZeroHit),
                               count(sum.scomaReplacements))
                 : 1.0,
             "ratio"},
            {"net.send_calls", count(last.callsOf(Layer::NetSend)),
             "count"},
            {"net.send_ns", minNsPerCall(layerPasses, Layer::NetSend),
             "ns/call"},
            {"net.post_calls", count(last.callsOf(Layer::NetPost)),
             "count"},
            {"net.post_ns", minNsPerCall(layerPasses, Layer::NetPost),
             "ns/call"},
            {"net.messages_per_fetch", ratio(msgs, fetches),
             "msgs/fetch"},
            {"net.ni_wait_per_msg", ratio(count(sum.niWait), msgs),
             "cycles/msg"},
            {"trace.overhead", ratio(tracedTotal, runTotal), "ratio"},
        };
    }

    const std::string host = hostFingerprint();
    std::cout << "host: " << host << '\n'
              << "workload: " << o.workload << "  seed: " << o.seed
              << "  passes: " << passes << "  cells: " << n
              << "  refs: " << sum.refs << '\n'
              << "cells_failed: " << failed << '/' << n << '\n'
              << std::setprecision(6)
              << "yardstick_round_ms: " << yardMedian * 1e3
              << " (median of " << yardS.size()
              << "; times below scaled by " << scale << ")\n"
              << "raw_refs_per_s: " << ratio(refs, runTotal)
              << "  raw_slowest_cell_s: " << slowest
              << "  raw_setup_s: " << median(setupS) << '\n';
    for (const Metric &m : metrics)
        std::cout << std::setprecision(6) << m.name << ": " << m.value
                  << ' ' << m.unit << '\n';

    const std::string stem = o.outDir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed);
    {
        std::ofstream os(stem + (o.trace ? "-trace" : "") + ".json");
        os << std::setprecision(12) << "{\"host\": " << host
           << ", \"workload\": \"" << o.workload
           << "\", \"seed\": " << o.seed << ", \"trace\": " << o.trace
           << ", \"passes\": " << passes << ", \"cells_failed\": "
           << failed << ", \"yardstick_round_s\": " << yardMedian
           << ", \"scale\": " << scale
           << ", \"metrics\": " << jsonMetrics(metrics)
           << ", \"cells\": [";
        for (std::size_t i = 0; i < n; ++i)
            os << (i ? ", " : "") << "{\"name\": \"" << cells[i].name
               << "\", \"refs\": " << ev[i].first.refs
               << ", \"run_s\": " << cellRun[i] << ", \"passes_s\": ["
               << joined(runS[i]) << "]}";
        os << "]}\n";
    }
    if (o.trace && !tracer().writeSpans(stem + ".spans.tsv"))
        std::cerr << "perfbench: could not write the spans\n";
    if (!o.dumpExpected.empty()) {
        std::ofstream os(o.dumpExpected, std::ios::app);
        for (std::size_t i = 0; i < n; ++i)
            os << expectedLine(o.workload, cells[i],
                               countersOf(ev[i].first))
               << '\n';
    }

    std::cout << "{\"correct\": " << (failed ? "false" : "true")
              << ", \"attempted\": " << n << ", \"failed\": " << failed
              << ", \"metrics\": " << jsonMetrics(metrics) << "}"
              << std::endl;
    return 0;
}
