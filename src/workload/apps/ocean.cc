/**
 * @file
 * ocean: regular-grid ocean simulation (SPLASH-2, 258x258). Sharing
 * signature: red-black stencil sweeps exchange dense boundary rows
 * with band neighbors, a multigrid phase re-reads a large set of
 * coarse-level pages several times per iteration, and column-edge
 * elements touch many remote pages with only one or two blocks used
 * each (internal fragmentation). The remote working set exceeds both
 * the block cache and the page cache: every protocol suffers, R-NUMA
 * least (Section 5.2: "Ocean exhibits a large remote working set
 * which does not even fit in CC-NUMA's block cache ... block and page
 * traffic remain high").
 */

#include "workload/apps/apps.hh"

#include <vector>

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeOcean(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("ocean", p, seed ^ 0x0cea0ULL);
    // One band row per CPU minimum: fewer rows than CPUs would send
    // the upper bands (and the random column-edge reads) past the
    // allocated grid.
    const std::size_t rows = scaled(256, scale, b.ncpus());
    const std::size_t row_bytes = 2048; // 256 doubles
    const std::size_t arrays = 2;       // working grids
    const std::size_t coarse_pages = 100;
    const std::size_t coarse_reads = 200;
    const std::size_t mg_passes = 3;
    const std::size_t frag_reads = 24;
    const std::size_t iters = 10;
    const std::size_t ncpus = b.ncpus();
    const std::size_t rows_per_node = rows / b.nnodes()
        ? rows / b.nnodes() : 1;
    const std::size_t rows_per_cpu = rows / ncpus ? rows / ncpus : 1;
    const std::size_t row_blocks = row_bytes / p.blockSize;
    // Hoisted: the appends store through size_t fields the compiler
    // cannot tell from p's, so a call in the loop divides per entry.
    const std::size_t blocks_per_page = p.blocksPerPage();

    // Grids partitioned in horizontal bands, one band per node.
    std::vector<Addr> grid_base(arrays);
    for (std::size_t g = 0; g < arrays; ++g)
        grid_base[g] = b.allocBytes(rows * row_bytes);
    // Multigrid coarse levels, homed round-robin.
    Addr coarse = b.allocPages(coarse_pages);

    // The CPU whose band starts its node's band reads the node
    // below's boundary row at each sweep (see below).
    auto low_edge = [&](CpuId c) {
        NodeId n = b.nodeOf(c);
        return n > 0 && c * rows_per_cpu == n * rows_per_node;
    };
    // Per CPU: its band pages in each grid, on a node lead its coarse
    // pages, and a barrier; per iteration, for each color, a read
    // and a write per block of its rows (the colors split each row's
    // blocks) and, on a low edge, a boundary row per grid, then
    // frag_reads and a barrier; mg_passes of coarse_reads + 8 and a
    // barrier; End.
    for (CpuId c = 0; c < ncpus; ++c) {
        NodeId n = b.nodeOf(c);
        std::size_t band_pages = 0;
        for (std::size_t g = 0; g < arrays; ++g) {
            band_pages += b.pagesIn(
                grid_base[g] + c * rows_per_cpu * row_bytes,
                rows_per_cpu * row_bytes);
        }
        std::size_t per_iter_extra =
            (low_edge(c) ? 2 * arrays * row_blocks : 0) +
            2 * (frag_reads + 1) + mg_passes * (coarse_reads + 8 + 1);
        b.reserve(c, {iters, arrays, rows_per_cpu, row_blocks, 2},
                  band_pages +
                      (c == n * b.cpusPerNode()
                           ? b.roundRobinPages(n, coarse_pages) : 0) +
                      iters * per_iter_extra + 2);
    }

    for (std::size_t g = 0; g < arrays; ++g) {
        for (CpuId c = 0; c < ncpus; ++c) {
            b.touchRange(c, grid_base[g] +
                             c * rows_per_cpu * row_bytes,
                         rows_per_cpu * row_bytes);
        }
    }
    b.homeRoundRobin(coarse, coarse_pages);

    auto row_addr = [&](std::size_t g, std::size_t r) {
        return grid_base[g] + r * row_bytes;
    };

    b.barrier(); // placement completes before the parallel phase
    for (std::size_t it = 0; it < iters; ++it) {
        // Red-black relaxation sweeps over the owned rows, reading
        // the neighbor node's dense boundary row at band edges.
        for (std::size_t color = 0; color < 2; ++color) {
            for (CpuId c = 0; c < ncpus; ++c) {
                std::size_t r0 = c * rows_per_cpu;
                for (std::size_t g = 0; g < arrays; ++g) {
                    for (std::size_t r = r0; r < r0 + rows_per_cpu;
                         ++r) {
                        for (std::size_t blk = color;
                             blk < row_blocks; blk += 2) {
                            Addr a = row_addr(g, r) +
                                blk * p.blockSize;
                            b.read(c, a, 2);
                            b.write(c, a, 2);
                        }
                    }
                    // Boundary exchange: the CPU owning the band edge
                    // reads the adjacent node's boundary row.
                    if (low_edge(c)) {
                        std::size_t nb =
                            b.nodeOf(c) * rows_per_node - 1;
                        for (std::size_t blk = 0; blk < row_blocks;
                             ++blk) {
                            b.read(c, row_addr(g, nb) +
                                       blk * p.blockSize, 2);
                        }
                    }
                }
                // Column-edge fragmentation: single blocks scattered
                // over other nodes' row pages.
                for (std::size_t k = 0; k < frag_reads; ++k) {
                    std::size_t r = static_cast<std::size_t>(
                        b.rng().below(rows));
                    std::size_t g = static_cast<std::size_t>(
                        b.rng().below(arrays));
                    b.read(c, row_addr(g, r) +
                               (row_blocks - 1) * p.blockSize, 2);
                }
            }
            b.barrier();
        }
        // Multigrid W-cycle: several passes re-reading scattered
        // coarse blocks; each node updates its own coarse share.
        for (std::size_t pass = 0; pass < mg_passes; ++pass) {
            for (CpuId c = 0; c < ncpus; ++c) {
                for (std::size_t k = 0; k < coarse_reads; ++k) {
                    std::size_t blk = static_cast<std::size_t>(
                        b.rng().below(coarse_pages * blocks_per_page));
                    b.read(c, coarse + blk * p.blockSize, 2);
                }
                // Update owned coarse blocks (local writes).
                NodeId n = b.nodeOf(c);
                for (std::size_t k = 0; k < 8; ++k) {
                    std::size_t pg = n + b.nnodes() *
                        b.rng().below(coarse_pages / b.nnodes());
                    Addr a = coarse + pg * p.pageSize +
                        b.rng().below(blocks_per_page) *
                            p.blockSize;
                    b.write(c, a, 2);
                }
            }
            b.barrier();
        }
    }
    return b.finish();
}

} // namespace rnuma
