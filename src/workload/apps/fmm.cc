/**
 * @file
 * fmm: adaptive Fast Multipole Method N-body (SPLASH-2). Sharing
 * signature: each node's interaction lists repeatedly read a pool of
 * a few hundred remote cells whose multipole expansions are rewritten
 * by their owners every timestep. The pool's bytes (~26 KB) fit the
 * 32 KB block cache, so CC-NUMA does well — but the pool's cells are
 * scattered a few to a page over ~90 remote pages (internal
 * fragmentation), which exceeds the 80-frame page cache: S-COMA
 * thrashes (the paper's ~4x case) and R-NUMA's relocated pages bounce
 * between the caches, leaving R-NUMA within a bounded distance of
 * CC-NUMA (Table 4: R-NUMA refetches at 142% of CC-NUMA's).
 */

#include "workload/apps/apps.hh"

#include <numeric>
#include <vector>

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeFmm(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("fmm", p, seed ^ 0xf330ULL);
    const std::size_t cells = scaled(8192, scale);
    const std::size_t cell_bytes = 128; // multipole expansion
    const std::size_t pool_cells = 84; // per-node remote pool
    const std::size_t interactions = 16;
    const std::size_t passes = 2;
    const std::size_t iters = 3;
    const std::size_t ncpus = b.ncpus();
    const std::size_t own = cells / ncpus ? cells / ncpus : 1;
    // An expansion spans two blocks only while blockSize <
    // cell_bytes; with larger blocks the +blockSize access would
    // cross into the next cell (or past the array's last cell).
    const bool two_block_cells = p.blockSize < cell_bytes;
    // Pages smaller than a cell hold a fraction of one; clamp so the
    // page/pool arithmetic below stays meaningful (one cell "per
    // page" then simply means per cell-sized span).
    const std::size_t cells_per_page =
        p.pageSize >= cell_bytes ? p.pageSize / cell_bytes : 1;

    Addr base = b.allocBytes(cells * cell_bytes);

    // Per-node interaction pools: remote cells, at most one per page
    // — the adaptive tree scatters each list over many pages with
    // only a cell or two used on each (the internal-fragmentation
    // signature; Section 5.2/5.3: "large and sparse working sets
    // which result in fragmentation in the page cache").
    const std::size_t pages_total = cells / cells_per_page;
    // Cap the pool to the remote pages actually available at small
    // test scales (7/8 of the cell pages are remote to any node).
    const std::size_t remote_pages = pages_total -
        pages_total / b.nnodes();
    const std::size_t pool_want = pool_cells < remote_pages * 9 / 10
        ? pool_cells : remote_pages * 9 / 10;
    // Cells are chosen to avoid aliasing in the direct-mapped block
    // cache (real interaction lists are laid out by the tree build,
    // not adversarially strided), so CC-NUMA's 32 KB block cache
    // genuinely holds the pool — the paper's premise that fmm's
    // remote working set fits the block cache.
    const std::size_t bc_sets = p.blockCacheSize / p.blockSize;
    // A cell's first block only ever maps to set0 = q*stride % bc_sets,
    // so at most bc_sets/gcd(stride, bc_sets) sets are reachable (half
    // that when stride == 1, because each accepted cell also claims
    // set0+1). Tiny configurations (e.g. the 1 KB test block cache)
    // offer fewer conflict-free slots than pool_cells; without this cap
    // the rejection loop below never terminates.
    const std::size_t set_stride = cell_bytes / p.blockSize;
    const std::size_t reachable_sets =
        bc_sets / std::gcd(set_stride, bc_sets);
    const std::size_t slot_cap = set_stride > 1
        ? reachable_sets : reachable_sets / 2;
    const std::size_t pool_limit = slot_cap > 0 ? slot_cap : 1;
    const std::size_t pool_target =
        pool_want < pool_limit ? pool_want : pool_limit;
    std::vector<std::vector<Addr>> pool(b.nnodes());
    for (NodeId n = 0; n < b.nnodes(); ++n) {
        pool[n].reserve(pool_target);
        std::vector<bool> used(pages_total, false);
        std::vector<bool> set_used(bc_sets, false);
        while (pool[n].size() < pool_target) {
            std::size_t pg = static_cast<std::size_t>(
                b.rng().below(pages_total));
            std::size_t q = pg * cells_per_page +
                static_cast<std::size_t>(
                    b.rng().below(cells_per_page));
            CpuId owner = static_cast<CpuId>(q / own < ncpus
                                             ? q / own : ncpus - 1);
            if (used[pg] || (b.nodeOf(owner) == n && b.nnodes() > 1))
                continue;
            std::size_t set0 = q * set_stride % bc_sets;
            if (set_used[set0])
                continue;
            set_used[set0] = true;
            if (set0 + 1 < bc_sets)
                set_used[set0 + 1] = true;
            used[pg] = true;
            pool[n].push_back(base + q * cell_bytes);
        }
    }

    // Per CPU: its cell pages and a barrier, then per iteration an
    // expansion write and, with a pool, passes * interactions pool
    // reads per owned cell (a block each, two with two-block cells)
    // and two barriers; End.
    const std::size_t cell_refs = two_block_cells ? 2 : 1;
    const std::size_t pool_reads = pool_target > 0
        ? passes * interactions : 0;
    for (CpuId c = 0; c < ncpus; ++c) {
        b.reserve(c, {iters, own, cell_refs, 1 + pool_reads},
                  b.pagesIn(base + c * own * cell_bytes,
                            own * cell_bytes) +
                      2 * iters + 2);
        b.touchRange(c, base + c * own * cell_bytes, own * cell_bytes);
    }

    b.barrier(); // placement completes before the parallel phase
    for (std::size_t it = 0; it < iters; ++it) {
        // Upward pass: owners recompute their cells' expansions
        // (local writes; consumers' copies are invalidated).
        for (CpuId c = 0; c < ncpus; ++c) {
            Addr mine = base + c * own * cell_bytes;
            for (std::size_t i = 0; i < own; ++i) {
                b.write(c, mine + i * cell_bytes, 2);
                if (two_block_cells)
                    b.write(c, mine + i * cell_bytes + p.blockSize,
                            2);
            }
        }
        b.barrier();

        // Interaction-list passes: re-read pool cells (two blocks of
        // each expansion) with heavy intra-node reuse. Degenerate
        // scales can leave no remote pages to pool (pool_target == 0);
        // there is then no interaction traffic to model, and indexing
        // the empty pool would be undefined.
        for (std::size_t pass = 0; pool_target > 0 && pass < passes;
             ++pass) {
            for (CpuId c = 0; c < ncpus; ++c) {
                NodeId n = b.nodeOf(c);
                for (std::size_t i = 0; i < own; ++i) {
                    for (std::size_t k = 0; k < interactions; ++k) {
                        Addr cell = pool[n][static_cast<std::size_t>(
                            b.rng().below(pool_target))];
                        b.read(c, cell, 4);
                        if (two_block_cells)
                            b.read(c, cell + p.blockSize, 4);
                    }
                }
            }
        }
        b.barrier();

        // Slow churn of the interaction lists as bodies move.
        for (NodeId n = 0; n < b.nnodes(); ++n) {
            for (std::size_t k = 0; k < pool_target / 10; ++k) {
                std::size_t pg = static_cast<std::size_t>(
                    b.rng().below(pages_total));
                std::size_t q = pg * cells_per_page +
                    static_cast<std::size_t>(
                        b.rng().below(cells_per_page));
                pool[n][static_cast<std::size_t>(
                    b.rng().below(pool_target))] = base + q * cell_bytes;
            }
        }
    }
    return b.finish();
}

} // namespace rnuma
