/**
 * @file
 * custom_sweep: declaring your own experiment grid on the sweep
 * driver — a parameter study the paper never ran (relocation
 * threshold x page-cache size for one application), executed on a
 * thread pool and emitted as machine-readable JSON. This is the
 * pattern every new scaling or scenario study should follow instead
 * of hand-rolling run loops.
 *
 * Usage: custom_sweep [app] [scale] [jobs]
 */

#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "driver/result_sink.hh"
#include "driver/sweep.hh"
#include "driver/sweep_runner.hh"

int
main(int argc, char **argv)
{
    using namespace rnuma;
    using namespace rnuma::driver;

    std::string app = argc > 1 ? argv[1] : "ocean";
    double scale = argc > 2 ? std::atof(argv[2]) : 0.25;
    std::size_t jobs = argc > 3
        ? static_cast<std::size_t>(std::atol(argv[3])) : 0;

    // The axes: R-NUMA's relocation threshold against its page-cache
    // budget. Each (T, size) pair is one independent cell.
    const std::size_t thresholds[] = {16, 64, 256};
    const std::size_t cache_kb[] = {160, 320, 1280};

    Sweep sweep("threshold-x-pagecache",
                "R-NUMA threshold vs page-cache size", "custom");
    Params base = Params::base();
    // One shared factory and one shared cache key: every cell
    // measures the identical trace, and the runner's workload cache
    // generates it exactly once for the whole grid.
    WorkloadFactory make = workloadFactory(app, base, scale);
    std::string key = workloadCacheKey(app, base, scale);
    Params inf = base;
    inf.infiniteBlockCache = true;
    sweep.add({app, "baseline", protocolSpec("ccnuma"), inf, make,
               key, app});
    for (std::size_t T : thresholds) {
        for (std::size_t kb : cache_kb) {
            // The threshold axis is a relocation-policy variant
            // (staticThresholdSpec); the page-cache axis is real
            // hardware, so it stays in Params.
            Params p = base;
            p.pageCacheSize = kb * 1024;
            sweep.add({app,
                       "t" + std::to_string(T) + "-p" +
                           std::to_string(kb) + "k",
                       staticThresholdSpec(T), p, make, key, app});
        }
    }

    SweepRunner runner(jobs);
    std::cout << "running " << sweep.size() << " cells for " << app
              << " on " << runner.jobs() << " threads...\n\n";
    SweepResult result = runner.run(sweep);
    std::cout << result.workloadsGenerated
              << " workload generated, " << result.workloadCacheHits
              << " cells served from the cache\n";

    Table t({"threshold \\ page cache", "160KB", "320KB", "1280KB"});
    for (std::size_t T : thresholds) {
        std::vector<std::string> row{"T=" + std::to_string(T)};
        for (std::size_t kb : cache_kb) {
            row.push_back(Table::num(result.norm(
                app, "t" + std::to_string(T) + "-p" +
                         std::to_string(kb) + "k")));
        }
        t.addRow(row);
    }
    t.print(std::cout);

    // The same result, machine-readable (pipe to a file to keep it).
    FigureRun run;
    run.name = sweep.name();
    run.title = sweep.title();
    run.paperRef = sweep.paperRef();
    run.scale = scale;
    run.jobs = runner.jobs();
    run.result = std::move(result);
    std::cout << "\nJSON:\n";
    JsonSink().write(std::cout, {std::move(run)});
    return 0;
}
