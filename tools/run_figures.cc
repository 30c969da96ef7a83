/**
 * @file
 * rnuma_sweep: run any paper figure/table by name through the
 * thread-parallel sweep driver and emit human tables plus
 * machine-readable JSON results.
 *
 * Usage: rnuma_sweep [options] <figure>... | all; usage() below
 * lists the options (rnuma_sweep --help).
 *
 * Each figure's table goes to stdout under a header naming its
 * scale, cell count and workload-cache counts: the same bytes at any
 * --jobs. Its job count, wall time and verification note go to
 * stderr, as does the "wrote FILE" notice of --json-out, so stdout
 * holds only the tables and the closing cache summary. A renderer
 * whose figure breaks one of its invariants prints a MISMATCH line
 * and the exit status is 1.
 *
 * Every figure runs on one SweepRunner, whose workload cache lives for
 * the whole invocation: figures naming the same workload input
 * (fig5/fig6/table4's base-machine apps) generate it once, and the
 * runner's generated/hit totals are reported in the closing summary
 * line.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "driver/figures.hh"
#include "driver/result_sink.hh"
#include "net/registry.hh"
#include "proto/registry.hh"
#include "workload/registry.hh"

namespace
{

using namespace rnuma;
using namespace rnuma::driver;

int
usage(std::ostream &os, int status)
{
    os << "usage: rnuma_sweep [options] <figure>... | all\n"
          "  --list               list figure names\n"
          "  --list-protocols     list the protocol registry\n"
          "  --list-networks      list the network registry\n"
          "  --list-workloads     list the workload registry\n"
          "  --scale S            workload scale (default 1)\n"
          "  --jobs N             worker threads (0 = hardware "
          "concurrency; default 1)\n"
          "  --json-out FILE      write rnuma-sweep-results/v9 JSON\n"
          "  --verify             assert serial/parallel RunStats "
          "are bit-identical\n"
          "  --quiet              suppress human-readable tables\n";
    return status;
}

void
listFigures(std::ostream &os)
{
    for (const FigureSpec &s : figureSpecs())
        os << s.name << "\t" << s.title << "\n";
}

void
listProtocols(std::ostream &os)
{
    protocolTable().print(os);
    os << "\n(policies are shown for the paper's base Params; the "
          "'policies' and\n'serving' figures run every protocol)\n";
}

void
listNetworks(std::ostream &os)
{
    networkTable().print(os);
    os << "\n(the 'scaling' and 'serving' figures run mesh-2d; every "
          "other figure\npins the paper's constant model)\n";
}

void
listWorkloads(std::ostream &os)
{
    workloadTable().print(os);
    os << "\n(serving generators take k=v options via makeWorkload "
          "— see\ndocs/ARCHITECTURE.md)\n";
}

/** Write @p runs as results JSON to @p path; false on any failure. */
bool
emitJson(const std::string &path, const std::vector<FigureRun> &runs)
{
    std::ofstream out(path);
    if (out) {
        writeJson(out, runs);
        // close() writes what is still buffered: a full disk shows
        // up here, not at the last <<.
        out.close();
    }
    if (!out) {
        std::cerr << "rnuma_sweep: cannot write " << path << "\n";
        return false;
    }
    std::cerr << "wrote " << path << " (" << runs.size()
              << " figures)\n";
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = 1.0;
    std::size_t jobs = 1;
    std::string json_out;
    bool verify = false;
    bool quiet = false;
    std::vector<std::string> names;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "rnuma_sweep: " << arg
                          << " needs an argument\n";
                std::exit(usage(std::cerr, 2));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        else if (arg == "--list")
            return (listFigures(std::cout), 0);
        else if (arg == "--list-protocols")
            return (listProtocols(std::cout), 0);
        else if (arg == "--list-networks")
            return (listNetworks(std::cout), 0);
        else if (arg == "--list-workloads")
            return (listWorkloads(std::cout), 0);
        else if (arg == "--scale") {
            const char *val = next();
            std::optional<double> s = parseScale(val);
            if (!s) {
                std::cerr << "rnuma_sweep: --scale wants a positive "
                             "finite number, got '" << val << "'\n";
                return 2;
            }
            scale = *s;
        } else if (arg == "--jobs") {
            const char *val = next();
            std::optional<std::size_t> j = parseCount(val);
            if (!j) {
                std::cerr << "rnuma_sweep: --jobs wants a "
                             "non-negative integer (0 = all cores), "
                             "got '" << val << "'\n";
                return 2;
            }
            jobs = *j;
        } else if (arg == "--json-out")
            json_out = next();
        else if (arg == "--verify")
            verify = true;
        else if (arg == "--quiet")
            quiet = true;
        else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "rnuma_sweep: unknown option '" << arg << "'\n";
            return usage(std::cerr, 2);
        } else
            names.push_back(arg);
    }
    if (names.empty())
        return usage(std::cerr, 2);
    if (names.size() == 1 && names[0] == "all") {
        names.clear();
        for (const FigureSpec &s : figureSpecs())
            names.push_back(s.name);
    }

    std::vector<const FigureSpec *> specs;
    for (const std::string &n : names) {
        const FigureSpec *s = findFigure(n);
        if (!s) {
            std::cerr << "rnuma_sweep: unknown figure '" << n
                      << "' (see --list)\n";
            return 2;
        }
        specs.push_back(s);
    }

    int status = 0;
    // One runner for the whole invocation, so figures naming the
    // same workload input generate it exactly once.
    SweepRunner runner(jobs);
    std::vector<FigureRun> runs;
    runs.reserve(specs.size());
    for (const FigureSpec *spec : specs) {
        FigureRun run = runFigure(*spec, scale, runner, verify);
        std::ostringstream table;
        int rc = renderFigure(*spec, run, table);
        if (!quiet) {
            // Host- and --jobs-dependent facts go to stderr, so
            // stdout is the same bytes at any job count.
            std::cerr << "rnuma_sweep: " << run.name << ": jobs "
                      << run.jobs << ", " << Table::num(run.wallMs)
                      << " ms"
                      << (verify && run.jobs > 1
                              ? ", serial/parallel verified" : "")
                      << "\n";
            std::cout << "==== " << run.name << ": " << run.title
                      << "\n     " << run.paperRef << "\n     scale "
                      << run.scale << ", " << run.result.cells.size()
                      << " cells";
            if (run.result.workloadsGenerated > 0) {
                std::cout << ", " << run.result.workloadsGenerated
                          << " workloads generated ("
                          << run.result.workloadCacheHits
                          << " cache hits)";
            }
            std::cout << "\n\n" << table.str() << "\n";
        }
        if (rc > status)
            status = rc;
        runs.push_back(std::move(run));
    }

    std::cout << "workload cache: " << runner.workloadsGenerated()
              << " workloads generated, " << runner.workloadCacheHits()
              << " cells served from cache across " << runs.size()
              << " figure(s)\n";

    if (!json_out.empty() && !emitJson(json_out, runs))
        status = status > 1 ? status : 1;
    return status;
}
