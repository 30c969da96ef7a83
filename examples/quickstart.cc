/**
 * @file
 * Quickstart: build the paper's base machine, run one workload under
 * every registered protocol, and print normalized execution times
 * (normalized to a CC-NUMA with an infinite block cache, as in
 * Figure 6) plus the winner/regret summary. A protocol registered
 * with ProtocolRegistry::global().add() appears here automatically.
 *
 * Usage: quickstart [app-name] [scale] [jobs]
 *   app-name  one of the ten Table 3 applications (default: moldyn)
 *   scale     input scale factor (default 0.5 for a quick run)
 *   jobs      threads for the runs (default 4; 0 = one per core;
 *             deterministic at any value)
 */

#include <iostream>
#include <optional>

#include "common/params.hh"
#include "common/table.hh"
#include "driver/sweep.hh"
#include "driver/sweep_runner.hh"
#include "sim/runner.hh"
#include "workload/registry.hh"

int
main(int argc, char **argv)
{
    using namespace rnuma;
    using namespace rnuma::driver;

    std::string app = argc > 1 ? argv[1] : "moldyn";
    std::optional<double> scale = parseScale(argc > 2 ? argv[2] : "0.5");
    std::optional<std::size_t> jobs = parseCount(argc > 3 ? argv[3] : "4");
    if (!scale || !jobs) {
        std::cerr << "usage: quickstart [app] [scale > 0] [jobs >= 0]\n";
        return 2;
    }

    Params p = Params::base();
    std::cout << "R-NUMA quickstart: app=" << app << " scale=" << *scale
              << "\n"
              << "machine: " << p.numNodes << " nodes x "
              << p.cpusPerNode << " cpus, block cache "
              << p.blockCacheSize / 1024 << "KB, page cache "
              << p.pageCacheSize / 1024 << "KB, threshold "
              << p.relocationThreshold << "\n\n";

    auto wl = makeWorkload(app, p, *scale);
    std::cout << "workload: "
              << wl->totalRefs()
              << " stream entries\n\n";

    // One sweep row: the infinite-block-cache baseline plus every
    // registered protocol. The cells share one generated workload and
    // run concurrently with bit-identical results.
    std::vector<std::string> ids = protocolIds();
    Sweep sweep("quickstart");
    sweep.addComparison(app, p, {app, p, *scale}, ids);
    SweepResult r = SweepRunner(*jobs).run(sweep);

    // The fastest protocol; ties go to the earliest registered.
    const CellResult *winner = nullptr;
    for (const CellResult &c : r.cells) {
        if (c.config != "baseline" &&
            (!winner || c.stats.ticks < winner->stats.ticks))
            winner = &c;
    }

    Table t({"protocol", "ticks", "normalized", "vs winner",
             "remote fetches", "refetches", "page ops"});
    for (const CellResult &c : r.cells) {
        const RunStats &s = c.stats;
        std::string regret = "-";
        if (c.config != "baseline") {
            double loss =
                normalizedTime(s.ticks, winner->stats.ticks) - 1.0;
            regret = loss <= 0 ? "winner" : "+" + Table::pct(loss);
        }
        t.addRow({c.config == "baseline" ? "CC-NUMA(inf)"
                                         : c.protocolName,
                  std::to_string(s.ticks),
                  Table::num(r.norm(app, c.config)), regret,
                  std::to_string(s.remoteFetches),
                  std::to_string(s.refetches),
                  std::to_string(s.scomaAllocations +
                                 s.relocations)});
    }
    t.print(std::cout);

    std::cout << "\nwinner: " << winner->protocolName
              << "  best of CC/SC: " << Table::num(r.bestOfBase(app))
              << "  R-NUMA: " << Table::num(r.norm(app, "rnuma"))
              << "\npaper invariant: R-NUMA is never much worse "
                 "than the best of the two base\nsystems (Section "
                 "5) — and any newly registered policy lands in "
                 "this table\nwith zero wiring.\n";
    return 0;
}
