/**
 * @file
 * database_scan: the motivating scenario from the paper's
 * introduction. Verghese et al. found that 90% of user data misses
 * in a commercial relational database are to read-write shared
 * pages — traffic that page migration and read-only replication
 * cannot help, but S-COMA-style page caching can (Section 1).
 *
 * The workload models an OLTP-ish mix on the base 8x4 machine:
 *   - a large, read-mostly buffer pool scanned with reuse (too big
 *     for the block cache, read-write shared via updates),
 *   - a hot lock/latch page hammered read-write by every node,
 *   - per-transaction private working storage (node-local).
 *
 * Run it to see R-NUMA relocate the buffer-pool pages while leaving
 * the lock page (pure coherence traffic) in CC-NUMA mode.
 */

#include <iostream>

#include "common/params.hh"
#include "common/table.hh"
#include "sim/runner.hh"
#include "workload/registry.hh"

int
main(int argc, char **argv)
{
    using namespace rnuma;
    std::size_t txns = argc > 1
        ? static_cast<std::size_t>(std::atoi(argv[1])) : 48;

    Params p = Params::base();
    std::cout << "database_scan: OLTP-like read-write sharing ("
              << txns << " transaction rounds)\n\n";
    // The generator lives in the workload registry now
    // (src/workload/serving.cc); seed 0xdb reproduces the stream
    // this example has always run.
    auto wl = makeWorkload("database-scan", p, 1.0, 0xdb,
                           "transactions=" + std::to_string(txns));
    Tick ideal = runInfiniteBaseline(p, *wl).ticks;

    Table t({"protocol", "normalized time", "refetches",
             "relocations", "replacements"});
    RunStats rnuma;
    for (const char *id : {"ccnuma", "scoma", "rnuma"}) {
        RunStats s = runProtocol(p, id, *wl);
        t.addRow({protocolSpec(id).displayName,
                  Table::num(normalizedTime(s.ticks, ideal)),
                  std::to_string(s.refetches),
                  std::to_string(s.relocations),
                  std::to_string(s.scomaReplacements)});
        rnuma = s; // the last row, quoted below
    }
    t.print(std::cout);

    std::cout << "\nR-NUMA relocated " << rnuma.relocations
              << " hot buffer-pool pages; the latch page's "
                 "coherence traffic\nnever counts as refetches, so "
                 "it stays CC-NUMA — the per-page split the\npaper "
                 "argues for in Section 1.\n";
    return 0;
}
