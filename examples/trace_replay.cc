/**
 * @file
 * trace_replay: record a registered workload's reference streams to
 * the streaming binary trace format (workload/trace_stream.hh) and
 * replay it bit-identically off the file mapping — the mechanism for
 * sharing reproducible inputs and regression-testing protocol
 * changes without materializing the trace in memory.
 *
 * The replay side never loads the trace: StreamTraceWorkload decodes
 * records lazily from an mmap of the file, so resident memory is
 * bounded by one chunk per CPU regardless of trace length.
 *
 * Usage: trace_replay [workload] [scale] [path]
 *   workload: any id from `rnuma_sweep --list-workloads`
 *
 * Exits 0 when the replayed run is bit-identical to the original
 * (ticks and remote fetches match), 1 otherwise — CI uses this as
 * the trace-format golden round-trip check.
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

    std::cout << "replaying from the file mapping ...\n";
    StreamTraceWorkload replayed(path);

    RunStats a = runProtocol(p, "rnuma", *original);
    RunStats b = runProtocol(p, "rnuma", replayed);

    std::cout << "\noriginal : ticks=" << a.ticks
              << " remoteFetches=" << a.remoteFetches
              << " relocations=" << a.relocations << "\n"
              << "replayed : ticks=" << b.ticks
              << " remoteFetches=" << b.remoteFetches
              << " relocations=" << b.relocations << "\n";

    if (a.ticks == b.ticks && a.remoteFetches == b.remoteFetches &&
        a.relocations == b.relocations) {
        std::cout << "\nPASS: streamed replay is bit-identical.\n";
        return 0;
    }
    std::cout << "\nFAIL: streamed replay diverged.\n";
    return 1;
}
