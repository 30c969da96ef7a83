/**
 * @file
 * raytrace: 3-D scene rendering (SPLASH-2, "car" scene). Sharing
 * signature: almost entirely read-only — rays re-read the hot top of
 * the BVH constantly and sample the large cold scene sparsely, and
 * nothing invalidates those copies between frames, so CC-NUMA's
 * capacity evictions turn into silent-eviction refetches. Only a
 * tiny work-queue page is read-write shared (Table 4: 5% of
 * refetches from RW pages — the one application where read-only
 * replication schemes would also work). R-NUMA relocates the hot BVH
 * pages and outperforms both base protocols.
 */

#include "workload/apps/apps.hh"

#include <vector>

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeRaytrace(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("raytrace", p, seed ^ 0x4a70ULL);
    const std::size_t hot_pages = 12;   // BVH top levels
    const std::size_t cold_pages = 400; // scene geometry
    const std::size_t rays_per_cpu = scaled(600, scale);
    const std::size_t hot_reads = 10;
    const std::size_t cold_reads = 2;
    const std::size_t frames = 3;
    const std::size_t ncpus = b.ncpus();

    Addr hot = b.allocPages(hot_pages);
    Addr cold = b.allocPages(cold_pages);
    Addr queue = b.allocPages(1); // shared work queue (RW)
    // Private framebuffer strips.
    std::vector<Addr> fb(ncpus);
    for (CpuId c = 0; c < ncpus; ++c)
        fb[c] = b.allocPages(2);

    // Hoisted: the appends store through size_t fields the compiler
    // cannot tell from p's, so a call in the loop divides per entry.
    const std::size_t blocks_per_page = p.blocksPerPage();
    // Per CPU: its framebuffer pages; on a node lead, its BVH and
    // scene slices; on CPU 0, the queue page; a barrier, then per
    // frame hot_reads + cold_reads + 1 entries per ray, two per
    // queue grab (every 64th ray) and a barrier; End.
    const std::size_t grabs = (rays_per_cpu + 63) / 64;
    for (CpuId c = 0; c < ncpus; ++c) {
        NodeId n = b.nodeOf(c);
        bool lead = c == n * b.cpusPerNode();
        b.reserve(c, {frames, rays_per_cpu, hot_reads + cold_reads + 1},
                  b.pagesIn(fb[c], 2 * p.pageSize) +
                      (lead ? b.slicedPages(n, hot_pages) +
                                  b.slicedPages(n, cold_pages)
                            : 0) +
                      (c == 0) + frames * (2 * grabs + 1) + 2);
    }

    b.homeSliced(hot, hot_pages);
    b.homeSliced(cold, cold_pages);
    b.touch(0, queue);
    for (CpuId c = 0; c < ncpus; ++c)
        b.touchRange(c, fb[c], 2 * p.pageSize);

    auto rand_block = [&](Addr base_addr, std::size_t pages) {
        std::size_t blocks = pages * blocks_per_page;
        return base_addr + b.rng().below(blocks) * p.blockSize;
    };

    b.barrier(); // placement completes before the parallel phase
    for (std::size_t f = 0; f < frames; ++f) {
        for (CpuId c = 0; c < ncpus; ++c) {
            for (std::size_t r = 0; r < rays_per_cpu; ++r) {
                for (std::size_t k = 0; k < hot_reads; ++k)
                    b.read(c, rand_block(hot, hot_pages), 2);
                for (std::size_t k = 0; k < cold_reads; ++k)
                    b.read(c, rand_block(cold, cold_pages), 2);
                // Write the pixel to the private framebuffer strip.
                b.write(c, fb[c] + (r % (2 * blocks_per_page)) *
                                   p.blockSize, 2);
                // Occasionally grab work from the shared queue.
                if (r % 64 == 0) {
                    Addr a = queue +
                        (r / 64 % blocks_per_page) * p.blockSize;
                    b.read(c, a, 2);
                    b.write(c, a, 2);
                }
            }
        }
        b.barrier();
    }
    return b.finish();
}

} // namespace rnuma
