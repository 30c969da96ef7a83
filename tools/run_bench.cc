/**
 * @file
 * rnuma_bench: the measured-performance harness. Runs every
 * registered figure (or a subset) at one scale N times (default 5),
 * reports the median events/sec and events/instruction per cell,
 * and emits a versioned "rnuma-bench/v1" artifact (the committed
 * BENCH_<n>.json trajectory at the repo root).
 *
 * The per-cell counters — events, ticks, refs — are deterministic
 * simulator outputs: the harness asserts they are bit-identical
 * across the N runs (exit 3 otherwise), so the counter side of the
 * artifact is noise-immune, and only the host-measured events/sec
 * needs the median. Workloads are generated once into a shared cache
 * on the first run; later runs replay snapshots, which keeps the
 * medians from being polluted by one-time generation cost.
 *
 * Usage: rnuma_bench [options] [<figure>... | all]
 *   --list-protocols     print the protocol registry (id, name,
 *                        policy describe() string, description) and
 *                        exit
 *   --list-workloads     print the workload registry (id, name,
 *                        category, input, description) and exit
 *   --workload NAME      (repeatable) select registered workloads
 *                        for workload-parametric figures (the
 *                        "churn" sweep); other figures ignore it
 *   --runs N             runs per figure to take the median over
 *                        (default 5)
 *   --scale S            workload scale (default: RNUMA_BENCH_SCALE
 *                        or 1)
 *   --jobs N             worker threads; 0 = hardware concurrency
 *                        (default 1)
 *   --out FILE           write the rnuma-bench/v1 JSON artifact
 *   --bench-compare FILE diff against a stored bench artifact:
 *                        exact counters, tolerance on events/sec
 *                        (exit 4 on drift)
 *   --rate-tolerance PCT allowed median events/sec drop for
 *                        --bench-compare (default 8; negative =
 *                        counters only)
 *   --current FILE       with --bench-compare and no figures: diff
 *                        FILE against the baseline instead of
 *                        running
 *   --quiet              suppress the per-figure summary lines
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compare.hh"
#include "driver/figures.hh"
#include "driver/json.hh"
#include "driver/sweep_runner.hh"
#include "proto/registry.hh"
#include "workload/registry.hh"

namespace
{

using namespace rnuma;
using namespace rnuma::driver;

int
usage(std::ostream &os, int status)
{
    os << "usage: rnuma_bench [options] [<figure>... | all]\n"
          "  --list-protocols     list the protocol registry (with "
          "policy parameters)\n"
          "  --list-workloads     list the workload registry\n"
          "  --workload NAME      (repeatable) select workloads for "
          "workload-parametric\n"
          "                       figures (see 'churn')\n"
          "  --runs N             runs per figure for the median "
          "(default 5)\n"
          "  --scale S            workload scale (default: "
          "RNUMA_BENCH_SCALE or 1)\n"
          "  --jobs N             worker threads (0 = hardware "
          "concurrency; default 1)\n"
          "  --out FILE           write the rnuma-bench/v1 JSON "
          "artifact\n"
          "  --bench-compare FILE diff against a stored bench "
          "artifact (exit 4 on drift)\n"
          "  --rate-tolerance PCT allowed events/sec drop (default "
          "8; negative = counters only)\n"
          "  --current FILE       with --bench-compare: diff FILE "
          "instead of running\n"
          "  --quiet              suppress per-figure summaries\n";
    return status;
}

bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "rnuma_bench: cannot read " << path << "\n";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/**
 * Diff @p current against the bench artifact at @p path. Returns the
 * exit status: 0 clean, 4 drift, 2 unreadable or foreign baseline.
 */
int
benchCompare(const std::string &path, const BenchDoc &current,
             double rate_tolerance)
{
    std::string text;
    if (!slurp(path, text))
        return 2;
    try {
        BenchDoc baseline = loadBench(text);
        BenchCompareOptions opt;
        opt.ratePct = rate_tolerance;
        std::cout << "bench-comparing against " << path << " ("
                  << benchSchema << ")\n";
        return compareBench(baseline, current, opt, std::cout) > 0 ? 4
                                                                   : 0;
    } catch (const std::exception &e) {
        std::cerr << "rnuma_bench: bench-compare failed: " << e.what()
                  << "\n";
        return 2;
    }
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t runs = 5;
    double scale = envScale();
    std::size_t jobs = 1;
    std::string out_path;
    std::string compare_path;
    std::string current_path;
    double rate_tolerance = 8.0;
    bool quiet = false;
    std::vector<std::string> workloads;
    std::vector<std::string> names;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "rnuma_bench: " << arg
                          << " needs an argument\n";
                std::exit(usage(std::cerr, 2));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        else if (arg == "--list-protocols") {
            protocolTable().print(std::cout);
            std::cout << "\n(policies are shown for the paper's "
                         "base Params)\n";
            return 0;
        } else if (arg == "--list-workloads") {
            workloadTable().print(std::cout);
            return 0;
        } else if (arg == "--workload") {
            std::string name = next();
            if (!findWorkloadSpec(name)) {
                std::cerr << "rnuma_bench: unknown workload '"
                          << name
                          << "' (see --list-workloads)\n";
                return 2;
            }
            workloads.push_back(name);
        } else if (arg == "--runs") {
            const char *val = next();
            char *end = nullptr;
            long r = std::strtol(val, &end, 10);
            if (end == val || *end != '\0' || r < 1) {
                std::cerr << "rnuma_bench: --runs wants a positive "
                             "integer, got '" << val << "'\n";
                return 2;
            }
            runs = static_cast<std::size_t>(r);
        } else if (arg == "--scale") {
            const char *val = next();
            char *end = nullptr;
            scale = std::strtod(val, &end);
            if (end == val || *end != '\0' || scale <= 0) {
                std::cerr << "rnuma_bench: --scale wants a positive "
                             "number, got '" << val << "'\n";
                return 2;
            }
        } else if (arg == "--jobs") {
            const char *val = next();
            char *end = nullptr;
            long j = std::strtol(val, &end, 10);
            if (end == val || *end != '\0' || j < 0) {
                std::cerr << "rnuma_bench: --jobs wants a "
                             "non-negative integer (0 = all cores), "
                             "got '" << val << "'\n";
                return 2;
            }
            jobs = static_cast<std::size_t>(j);
        } else if (arg == "--rate-tolerance") {
            const char *val = next();
            char *end = nullptr;
            rate_tolerance = std::strtod(val, &end);
            if (end == val || *end != '\0') {
                std::cerr << "rnuma_bench: --rate-tolerance wants a "
                             "number (percent), got '" << val
                          << "'\n";
                return 2;
            }
        }
        else if (arg == "--out")
            out_path = next();
        else if (arg == "--bench-compare")
            compare_path = next();
        else if (arg == "--current")
            current_path = next();
        else if (arg == "--quiet")
            quiet = true;
        else if (!arg.empty() && arg[0] == '-')
            return usage(std::cerr, 2);
        else
            names.push_back(arg);
    }
    if (!current_path.empty() && compare_path.empty()) {
        std::cerr << "rnuma_bench: --current requires "
                     "--bench-compare\n";
        return 2;
    }
    if (!names.empty() && !current_path.empty()) {
        std::cerr << "rnuma_bench: --current replaces running "
                     "figures; drop the figure names\n";
        return 2;
    }

    //--- Pure artifact-vs-artifact mode ---------------------------------
    if (!current_path.empty()) {
        std::string text;
        if (!slurp(current_path, text))
            return 2;
        try {
            return benchCompare(compare_path, loadBench(text),
                                rate_tolerance);
        } catch (const std::exception &e) {
            std::cerr << "rnuma_bench: bench-compare failed: "
                      << e.what() << "\n";
            return 2;
        }
    }

    if (names.empty() || (names.size() == 1 && names[0] == "all")) {
        names.clear();
        for (const FigureSpec &s : figureSpecs())
            names.push_back(s.name);
    }
    std::vector<const FigureSpec *> specs;
    for (const std::string &n : names) {
        const FigureSpec *s = findFigure(n);
        if (!s) {
            std::cerr << "rnuma_bench: unknown figure '" << n
                      << "' (see rnuma_sweep --list)\n";
            return 2;
        }
        specs.push_back(s);
    }

    FigureOptions opt;
    opt.scale = scale;
    opt.workloads = workloads;
    // One workload cache across every run of every figure: run 0
    // generates, runs 1..N-1 replay snapshots.
    WorkloadCache process_cache;

    BenchDoc doc;
    doc.runs = runs;
    doc.scale = scale;
    doc.jobs = jobs;
    // rates[figure][cell] accumulates one events/sec sample per run.
    std::vector<std::vector<std::vector<double>>> rates(specs.size());

    for (std::size_t r = 0; r < runs; ++r) {
        for (std::size_t fi = 0; fi < specs.size(); ++fi) {
            FigureRun run = runFigure(*specs[fi], opt, jobs, false,
                                      true, &process_cache);
            if (r == 0) {
                BenchFigure f;
                f.name = run.name;
                f.scale = run.scale;
                rates[fi].resize(run.result.cells.size());
                for (const CellResult &c : run.result.cells) {
                    BenchCell bc;
                    bc.app = c.app;
                    bc.config = c.config;
                    bc.protocol = c.protocol;
                    bc.events = c.stats.events;
                    bc.ticks = c.stats.ticks;
                    bc.refs = c.stats.refs;
                    bc.eventsPerInstruction =
                        c.stats.refs > 0
                            ? static_cast<double>(c.stats.events) /
                                static_cast<double>(c.stats.refs)
                            : 0.0;
                    f.cells.push_back(std::move(bc));
                }
                doc.figures.push_back(std::move(f));
            }
            BenchFigure &f = doc.figures[fi];
            if (run.result.cells.size() != f.cells.size()) {
                std::cerr << "rnuma_bench: " << f.name
                          << ": cell count changed between runs\n";
                return 3;
            }
            for (std::size_t ci = 0; ci < f.cells.size(); ++ci) {
                const CellResult &c = run.result.cells[ci];
                BenchCell &bc = f.cells[ci];
                if (c.stats.events != bc.events ||
                    c.stats.ticks != bc.ticks ||
                    c.stats.refs != bc.refs) {
                    std::cerr
                        << "rnuma_bench: " << f.name << "/" << c.app
                        << "/" << c.config
                        << ": counters differ between runs — the "
                           "simulator is supposed to be "
                           "deterministic\n";
                    return 3;
                }
                rates[fi][ci].push_back(c.eventsPerSec());
            }
        }
        if (!quiet)
            std::cout << "run " << (r + 1) << "/" << runs
                      << " complete\n";
    }

    for (std::size_t fi = 0; fi < doc.figures.size(); ++fi) {
        BenchFigure &f = doc.figures[fi];
        double figure_events = 0, figure_rate_sum = 0;
        for (std::size_t ci = 0; ci < f.cells.size(); ++ci) {
            f.cells[ci].medianEventsPerSec = median(rates[fi][ci]);
            figure_events +=
                static_cast<double>(f.cells[ci].events);
            figure_rate_sum += f.cells[ci].medianEventsPerSec;
        }
        if (!quiet && !f.cells.empty()) {
            std::cout << "==== " << f.name << ": " << f.cells.size()
                      << " cells, median-of-" << runs
                      << " mean throughput "
                      << static_cast<std::uint64_t>(
                             figure_rate_sum /
                             static_cast<double>(f.cells.size()))
                      << " events/sec\n";
        }
    }

    if (!out_path.empty()) {
        std::ostringstream buf;
        writeBench(buf, doc);
        std::string text = buf.str();
        try {
            // Serialize-then-reparse guard, as the sweep CLI does.
            BenchDoc check = loadBench(text);
            if (check.figures.size() != doc.figures.size())
                throw std::runtime_error("figure count mismatch");
        } catch (const std::exception &e) {
            std::cerr << "rnuma_bench: emitted JSON failed "
                         "validation: " << e.what() << "\n";
            return 1;
        }
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "rnuma_bench: cannot write " << out_path
                      << "\n";
            return 1;
        }
        out << text;
        std::cout << "wrote " << out_path << " ("
                  << doc.figures.size() << " figures, median-of-"
                  << runs << ", validated)\n";
    }

    if (!compare_path.empty())
        return benchCompare(compare_path, doc, rate_tolerance);
    return 0;
}
