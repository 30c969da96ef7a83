/**
 * @file
 * barnes: Barnes-Hut N-body (SPLASH-2). Sharing signature: every
 * body's force traversal re-reads the small, hot top of the octree
 * thousands of times per timestep, while the large cold remainder
 * (lower cells and far bodies) is touched sparsely. The hot set
 * (~56 KB remote per node) overflows the 32 KB block cache, so
 * CC-NUMA refetches it continuously; the total remote page set
 * (hundreds of pages) overflows the 320 KB page cache, so S-COMA
 * thrashes. R-NUMA relocates exactly the hot pages and beats both
 * (Section 5.2: "R-NUMA performs best ... this is the case for
 * barnes and raytrace").
 */

#include "workload/apps/apps.hh"

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeBarnes(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("barnes", p, seed ^ 0xba12ULL);
    const std::size_t bodies = scaled(16384, scale);
    const std::size_t body_bytes = 32;
    const std::size_t hot_pages = 16;   // top tree levels
    const std::size_t cold_pages = 240; // lower cells
    const std::size_t hot_reads = 12;
    const std::size_t cold_reads = 1;
    const std::size_t iters = 4;
    const std::size_t ncpus = b.ncpus();
    const std::size_t own = bodies / ncpus ? bodies / ncpus : 1;

    Addr bodies_base = b.allocBytes(bodies * body_bytes);
    // Tree cells, partitioned across nodes (cells are built
    // cooperatively; each node homes a slice).
    Addr hot = b.allocPages(hot_pages);
    Addr cold = b.allocPages(cold_pages);

    // Hoisted: the appends store through size_t fields the compiler
    // cannot tell from p's, so a call in the loop divides per entry.
    const std::size_t blocks_per_page = p.blocksPerPage();
    // Tree rebuild writes per node lead and timestep (see below).
    const std::size_t hot_blocks = hot_pages * blocks_per_page;
    const std::size_t per_node = hot_blocks / b.nnodes();
    const std::size_t rebuild_writes = per_node * 2 / 5;
    // Per CPU: its body pages; on a node lead, its tree slices and
    // rebuild writes; a barrier, then per timestep hot_reads +
    // cold_reads + 2 entries per owned body and two barriers; End.
    for (CpuId c = 0; c < ncpus; ++c) {
        NodeId n = b.nodeOf(c);
        bool lead = c == n * b.cpusPerNode();
        b.reserve(c, {iters, own, hot_reads + cold_reads + 2},
                  b.pagesIn(bodies_base + c * own * body_bytes,
                            own * body_bytes) +
                      (lead ? b.slicedPages(n, hot_pages) +
                                  b.slicedPages(n, cold_pages) +
                                  iters * rebuild_writes
                            : 0) +
                      2 * iters + 2);
        b.touchRange(c, bodies_base + c * own * body_bytes,
                     own * body_bytes);
    }
    b.homeSliced(hot, hot_pages);
    b.homeSliced(cold, cold_pages);

    auto rand_block = [&](Addr base_addr, std::size_t pages) {
        std::size_t blocks = pages * blocks_per_page;
        return base_addr + b.rng().below(blocks) * p.blockSize;
    };

    b.barrier(); // placement completes before the parallel phase
    for (std::size_t it = 0; it < iters; ++it) {
        // Force traversal.
        for (CpuId c = 0; c < ncpus; ++c) {
            Addr mine = bodies_base + c * own * body_bytes;
            for (std::size_t i = 0; i < own; ++i) {
                for (std::size_t k = 0; k < hot_reads; ++k)
                    b.read(c, rand_block(hot, hot_pages), 2);
                for (std::size_t k = 0; k < cold_reads; ++k)
                    b.read(c, rand_block(cold, cold_pages), 2);
                // An occasional far-body read.
                b.read(c, bodies_base +
                           b.rng().below(bodies) * body_bytes, 2);
                b.write(c, mine + i * body_bytes, 2);
            }
        }
        b.barrier();
        // Tree rebuild: each node's lead CPU rewrites ~40% of its hot
        // slice, invalidating consumers (the hot pages are read-write
        // shared, matching Table 4's 97%).
        for (NodeId n = 0; n < b.nnodes(); ++n) {
            CpuId lead = static_cast<CpuId>(n * b.cpusPerNode());
            for (std::size_t k = 0; k < rebuild_writes; ++k) {
                Addr a = hot + (n * per_node +
                    b.rng().below(per_node)) * p.blockSize;
                b.write(lead, a, 2);
            }
        }
        b.barrier();
    }
    return b.finish();
}

} // namespace rnuma
