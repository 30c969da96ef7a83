/**
 * @file
 * trace_replay: record a registered workload's reference streams to
 * the binary trace format (workload/trace_stream.hh), load the file
 * back, and replay both under R-NUMA — the mechanism for sharing
 * reproducible inputs and regression-testing protocol changes.
 *
 * Usage: trace_replay [workload] [scale] [path]
 *   workload: any id from `rnuma_sweep --list-workloads`
 *
 * Exits 0 when the replayed run's RunStats equal the original's
 * field for field, 1 otherwise — CI uses this as the trace-format
 * golden round-trip check.
 */

#include <iostream>
#include <optional>

#include "common/params.hh"
#include "driver/sweep.hh"
#include "sim/runner.hh"
#include "workload/registry.hh"
#include "workload/trace_stream.hh"

int
main(int argc, char **argv)
{
    using namespace rnuma;
    std::string app = argc > 1 ? argv[1] : "barnes";
    std::optional<double> scale =
        driver::parseScale(argc > 2 ? argv[2] : "0.2");
    std::string path = argc > 3 ? argv[3] : "/tmp/rnuma_demo.trace";
    if (!scale) {
        std::cerr << "usage: trace_replay [workload] [scale > 0] [path]\n";
        return 2;
    }

    Params p = Params::base();

    std::cout << "recording " << app << " (scale " << *scale
              << ") to " << path << " ...\n";
    auto original = makeWorkload(app, p, *scale);
    recordStreamTrace(*original, path);

    std::cout << "loading " << path << " ...\n";
    auto replayed = loadStreamTrace(path);

    RunStats a = runProtocol(p, "rnuma", *original);
    RunStats b = runProtocol(p, "rnuma", *replayed);

    std::cout << "\noriginal : ticks=" << a.ticks
              << " remoteFetches=" << a.remoteFetches
              << " relocations=" << a.relocations << "\n"
              << "replayed : ticks=" << b.ticks
              << " remoteFetches=" << b.remoteFetches
              << " relocations=" << b.relocations << "\n";

    if (a == b) {
        std::cout << "\nPASS: replayed RunStats are identical.\n";
        return 0;
    }
    std::cout << "\nFAIL: replayed RunStats diverged.\n";
    return 1;
}
