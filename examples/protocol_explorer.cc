/**
 * @file
 * protocol_explorer: an interactive-style tour of the coherence
 * protocol using the public API directly — no workload generator.
 * Issues a scripted sequence of references on the base machine and
 * narrates how the directory classifies each miss, when the R-NUMA
 * counters fire, and what a relocation costs. A good first read for
 * understanding the library's moving parts.
 */

#include <iostream>
#include <memory>

#include "common/params.hh"
#include "common/table.hh"
#include "driver/sweep.hh"
#include "driver/sweep_runner.hh"
#include "os/page_table.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/workload.hh"

namespace
{

/** The second chunk, 32 KB away: conflicts in every cache. */
constexpr rnuma::Addr far = 32 * 1024;

/**
 * The scripted stream: CPU 4 (node 1) owns a page; CPU 0 (node 0)
 * ping-pongs two conflicting blocks until the page relocates.
 */
std::unique_ptr<rnuma::VectorWorkload>
explorerStream(const rnuma::Params &p)
{
    using namespace rnuma;
    auto wl = std::make_unique<VectorWorkload>("explorer",
                                               p.numCpus());
    Addr page_addr = 0;
    wl->push(4, Ref::touchOf(page_addr));
    wl->push(4, Ref::touchOf(far));
    wl->pushBarrierAll();
    for (int i = 0; i < 12; ++i) {
        wl->push(0, Ref::mem(page_addr, false, 2));
        wl->push(0, Ref::mem(far, false, 2));
    }
    wl->seal();
    return wl;
}

} // namespace

int
main()
{
    using namespace rnuma;
    using namespace rnuma::driver;
    Params p = Params::base();
    p.relocationThreshold = 8; // small, so the demo is short

    std::cout
        << "protocol_explorer: one remote page under R-NUMA "
           "(threshold 8)\n\n";

    auto wl = explorerStream(p);

    Machine m(p, protocolSpec("rnuma"), *wl);
    RunStats s = m.run();

    std::cout << "after 12 alternations over two conflicting remote "
                 "blocks:\n"
              << "  remote fetches  : " << s.remoteFetches << "\n"
              << "  cold misses     : " << s.coldMisses << "\n"
              << "  refetches       : " << s.refetches
              << "   (directory saw requests for blocks node 0 "
                 "already had)\n"
              << "  relocations     : " << s.relocations
              << "   (counters crossed the threshold of "
              << p.relocationThreshold << ")\n"
              << "  page-cache hits : " << s.pageCacheHits
              << "   (post-relocation, served from local memory)\n"
              << "  OS cycles       : " << s.osCycles << "\n\n";

    PageTable &pt = m.node(0).pageTable();
    std::cout << "node 0 page table now maps the hot pages as:\n"
              << "  page 0    : "
              << (pt.modeOf(0) == PageMode::SComa ? "S-COMA"
                                                  : "CC-NUMA")
              << "\n  page 8 (far block's page): "
              << (pt.modeOf(far / p.pageSize) == PageMode::SComa
                      ? "S-COMA" : "CC-NUMA")
              << "\n\nthe directory detected every capacity re-request"
                 " (Section 3.1), the\nreactive counters fired, and "
                 "the OS moved both pages into the page\ncache — the "
                 "R-NUMA mechanism end to end.\n\n";

    // The same scripted stream under every registered protocol: one
    // sweep row, the N-way version of the run above, in which a
    // newly registered policy appears with zero wiring.
    std::cout << "the same stream under every registered protocol "
                 "(normalized to the\ninfinite-block-cache "
                 "baseline):\n\n";
    std::vector<std::string> ids;
    for (const ProtocolSpec *spec : ProtocolRegistry::global().all())
        ids.push_back(spec->id);
    Sweep sweep("explorer");
    sweep.addComparison(
        "explorer", p, [p] { return explorerStream(p); },
        workloadCacheKey("explorer", p, 1.0), "", ids);
    SweepResult r = SweepRunner(/*jobs=*/0).run(sweep);

    // The fastest protocol; ties go to the earliest registered.
    const CellResult *winner = nullptr;
    for (const CellResult &c : r.cells) {
        if (c.config != "baseline" &&
            (!winner || c.stats.ticks < winner->stats.ticks))
            winner = &c;
    }
    Table t({"protocol", "normalized", "vs winner", "refetches",
             "relocations", "page-cache hits"});
    for (const CellResult &c : r.cells) {
        if (c.config == "baseline")
            continue;
        double loss =
            normalizedTime(c.stats.ticks, winner->stats.ticks) - 1.0;
        t.addRow({c.protocolName,
                  Table::num(r.norm("explorer", c.config)),
                  loss <= 0 ? "winner" : "+" + Table::pct(loss),
                  std::to_string(c.stats.refetches),
                  std::to_string(c.stats.relocations),
                  std::to_string(c.stats.pageCacheHits)});
    }
    t.print(std::cout);
    std::cout << "\nwinner: " << winner->protocolName
              << " — the threshold-8 hybrids relocate both pages "
                 "(and pay for it on this\nshort stream), while "
                 "R-NUMA(model)'s model-derived threshold exceeds "
                 "the 12\nalternations and keeps block-caching; "
                 "register your own ProtocolSpec\n"
                 "(docs/PROTOCOLS.md) and it joins this table.\n";
    return 0;
}
