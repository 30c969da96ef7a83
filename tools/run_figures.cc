/**
 * @file
 * rnuma_sweep: run any paper figure/table by name through the
 * thread-parallel sweep driver and emit human tables plus
 * machine-readable JSON/CSV results, optionally diffing their
 * counters against a stored baseline.
 *
 * Usage: rnuma_sweep [options] <figure>... | all
 *   --list               print the known figure names and exit
 *   --list-protocols     print the protocol registry (id, name,
 *                        policy, description) and exit
 *   --list-networks      print the network registry (id, name,
 *                        description) and exit
 *   --list-workloads     print the workload registry (id, name,
 *                        category, input, description) and exit
 *   --protocol NAME      (repeatable) select registered protocols
 *                        for protocol-parametric figures (the
 *                        "policies" sweep); other figures ignore it
 *   --network NAME       (repeatable) select registered network
 *                        models for network-parametric figures (the
 *                        "scaling" sweep); other figures ignore it
 *   --workload NAME      (repeatable) select registered workloads
 *                        for workload-parametric figures (the
 *                        "churn" sweep); other figures ignore it
 *   --scale S            workload scale (default: RNUMA_BENCH_SCALE
 *                        or 1)
 *   --jobs N             worker threads; 0 = hardware concurrency
 *                        (default 1)
 *   --json-out FILE      write results as rnuma-sweep-results/v9 JSON
 *   --csv-out FILE       write results as flat CSV
 *   --verify             re-run each sweep serially and assert
 *                        bit-identical RunStats
 *   --no-workload-cache  generate every cell's workload independently
 *                        (isolation debugging; results are identical
 *                        either way)
 *   --compare FILE       diff results against a baseline JSON: every
 *                        per-cell counter, exactly (exit 4 on drift)
 *   --current FILE       with --compare and no figures: diff FILE
 *                        against the baseline instead of running
 *   --quiet              suppress the per-figure human tables
 *
 * Each figure's table goes to stdout under a header naming its
 * scale, cell count and workload-cache counts: the same bytes at any
 * --jobs. Its job count, wall time and verification note go to
 * stderr.
 *
 * Workloads are cached process-wide: figures sharing a generator
 * key (fig5/fig6/table4's base-machine apps) generate once per
 * invocation, and the aggregate hit/miss count is reported in the
 * closing summary line.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "driver/compare.hh"
#include "driver/figures.hh"
#include "driver/json.hh"
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
          "  --protocol NAME      (repeatable) select protocols for "
          "protocol-parametric\n"
          "                       figures (see 'policies')\n"
          "  --network NAME       (repeatable) select network models "
          "for network-parametric\n"
          "                       figures (see 'scaling')\n"
          "  --workload NAME      (repeatable) select workloads for "
          "workload-parametric\n"
          "                       figures (see 'churn')\n"
          "  --scale S            workload scale (default: "
          "RNUMA_BENCH_SCALE or 1)\n"
          "  --jobs N             worker threads (0 = hardware "
          "concurrency; default 1)\n"
          "  --json-out FILE      write rnuma-sweep-results/v9 JSON\n"
          "  --csv-out FILE       write flat CSV\n"
          "  --verify             assert serial/parallel RunStats "
          "are bit-identical\n"
          "  --no-workload-cache  disable the content-addressed "
          "workload cache\n"
          "  --compare FILE       diff results against a baseline "
          "JSON (exit 4 on drift)\n"
          "  --current FILE       with --compare: diff FILE instead\n"
          "                       of running figures\n"
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
    os << "\n(policies are shown for the paper's base Params; "
          "select with --protocol,\nrun them via the 'policies' "
          "figure)\n";
}

void
listNetworks(std::ostream &os)
{
    networkTable().print(os);
    os << "\n(select with --network, sweep them via the 'scaling' "
          "figure; every other\nfigure pins the paper's constant "
          "model)\n";
}

void
listWorkloads(std::ostream &os)
{
    workloadTable().print(os);
    os << "\n(select with --workload, sweep them via the 'churn' "
          "figure; serving\ngenerators take k=v options via "
          "makeWorkload — see docs/ARCHITECTURE.md)\n";
}

/** Serialize, then re-parse as a malformed-output guard. */
bool
emitJson(const std::string &path,
         const std::vector<FigureRun> &runs)
{
    std::ostringstream buf;
    JsonSink().write(buf, runs);
    std::string text = buf.str();
    try {
        JsonValue doc = parseJson(text);
        const JsonValue *figures = doc.get("figures");
        if (!figures || !figures->isArray() ||
            figures->array.size() != runs.size())
            throw std::runtime_error("figure count mismatch");
    } catch (const std::exception &e) {
        std::cerr << "rnuma_sweep: emitted JSON failed validation: "
                  << e.what() << "\n";
        return false;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << "rnuma_sweep: cannot write " << path << "\n";
        return false;
    }
    out << text;
    std::cout << "wrote " << path << " (" << runs.size()
              << " figures, validated)\n";
    return true;
}

/** Read a whole file; empty optional-style failure via bool. */
bool
slurp(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "rnuma_sweep: cannot read " << path << "\n";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = envScale();
    std::size_t jobs = 1;
    std::vector<std::string> protocols;
    std::vector<std::string> networks;
    std::vector<std::string> workloads;
    std::string json_out;
    std::string csv_out;
    std::string compare_path;
    std::string current_path;
    bool verify = false;
    bool quiet = false;
    bool cache_workloads = true;
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
        else if (arg == "--protocol") {
            std::string name = next();
            if (!findProtocolSpec(name)) {
                std::cerr << "rnuma_sweep: unknown protocol '"
                          << name << "' (see --list-protocols)\n";
                return 2;
            }
            protocols.push_back(name);
        } else if (arg == "--network") {
            std::string name = next();
            if (!findNetworkSpec(name)) {
                std::cerr << "rnuma_sweep: unknown network '"
                          << name << "' (see --list-networks)\n";
                return 2;
            }
            networks.push_back(name);
        } else if (arg == "--workload") {
            std::string name = next();
            if (!findWorkloadSpec(name)) {
                std::cerr << "rnuma_sweep: unknown workload '"
                          << name << "' (see --list-workloads)\n";
                return 2;
            }
            workloads.push_back(name);
        } else if (arg == "--scale") {
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
            char *end = nullptr;
            long j = std::strtol(val, &end, 10);
            if (end == val || *end != '\0' || j < 0) {
                std::cerr << "rnuma_sweep: --jobs wants a "
                             "non-negative integer (0 = all cores), "
                             "got '" << val << "'\n";
                return 2;
            }
            jobs = static_cast<std::size_t>(j);
        } else if (arg == "--json-out")
            json_out = next();
        else if (arg == "--csv-out")
            csv_out = next();
        else if (arg == "--compare")
            compare_path = next();
        else if (arg == "--current")
            current_path = next();
        else if (arg == "--verify")
            verify = true;
        else if (arg == "--no-workload-cache")
            cache_workloads = false;
        else if (arg == "--quiet")
            quiet = true;
        else if (!arg.empty() && arg[0] == '-')
            return usage(std::cerr, 2);
        else
            names.push_back(arg);
    }
    if (!current_path.empty() && compare_path.empty()) {
        std::cerr << "rnuma_sweep: --current requires --compare\n";
        return 2;
    }
    if (names.empty() && current_path.empty())
        return usage(std::cerr, 2);
    if (!names.empty() && !current_path.empty()) {
        std::cerr << "rnuma_sweep: --current replaces running "
                     "figures; drop the figure names\n";
        return 2;
    }
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
    FigureOptions opt;
    opt.scale = scale;
    opt.protocols = protocols;
    opt.networks = networks;
    opt.workloads = workloads;
    // One process-scope snapshot store for the whole invocation, so
    // figures sharing a workload key generate it exactly once.
    WorkloadCache process_cache;
    std::vector<FigureRun> runs;
    runs.reserve(specs.size());
    for (const FigureSpec *spec : specs) {
        FigureRun run =
            runFigure(*spec, opt, jobs, verify, cache_workloads,
                      cache_workloads ? &process_cache : nullptr);
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

    if (!runs.empty() && cache_workloads) {
        std::cout << "workload cache: "
                  << process_cache.generated()
                  << " workloads generated, "
                  << process_cache.hits()
                  << " cells served from cache across "
                  << runs.size() << " figure(s)\n";
    }

    if (!json_out.empty() && !emitJson(json_out, runs))
        status = status > 1 ? status : 1;
    if (!csv_out.empty()) {
        std::ofstream out(csv_out);
        if (!out) {
            std::cerr << "rnuma_sweep: cannot write " << csv_out
                      << "\n";
            status = status > 1 ? status : 1;
        } else {
            CsvSink().write(out, runs);
            std::cout << "wrote " << csv_out << "\n";
        }
    }

    if (!compare_path.empty()) {
        try {
            ResultDoc current;
            if (!current_path.empty()) {
                std::string cur_text;
                if (!slurp(current_path, cur_text))
                    return 2;
                current = loadResults(cur_text);
            } else {
                current = resultsOf(runs);
            }
            std::string text;
            if (!slurp(compare_path, text))
                return 2;
            ResultDoc baseline = loadResults(text);
            std::cout << "comparing against " << compare_path << " ("
                      << resultsSchema << ")\n";
            if (compareResults(baseline, current, std::cout) > 0)
                status = 4;
        } catch (const std::exception &e) {
            std::cerr << "rnuma_sweep: compare failed: " << e.what()
                      << "\n";
            return 2;
        }
    }
    return status;
}
