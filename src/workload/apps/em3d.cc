/**
 * @file
 * em3d: 3-D electromagnetic wave propagation on a bipartite graph
 * (Split-C). Sharing signature: pure producer/consumer. Each graph
 * node is owned by one CPU; every iteration each CPU reads its
 * nodes' neighbors (15% of edges cross node boundaries) and rewrites
 * its own values. Remote blocks are invalidated by the producer
 * between iterations, so remote traffic is almost entirely coherence
 * misses — CC-NUMA territory. The remote pages per node far exceed
 * the page cache, so S-COMA replaces frames constantly for no reuse
 * benefit (Section 5.2: em3d/fft favor CC-NUMA).
 */

#include "workload/apps/apps.hh"

#include <vector>

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeEm3d(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("em3d", p, seed ^ 0xe3d0ULL);
    const std::size_t gnodes_per_cpu = scaled(1200, scale);
    const std::size_t degree = 5;
    const double remote_frac = 0.15;
    const std::size_t iters = 5;
    const std::size_t ncpus = b.ncpus();

    // One 32-byte value record per graph node, regions per CPU.
    std::vector<Addr> region(ncpus);
    for (CpuId c = 0; c < ncpus; ++c) {
        region[c] = b.allocBytes(gnodes_per_cpu * p.blockSize);
        // Its region's pages and a barrier, then per iteration degree
        // reads and a write per graph node and a barrier; End.
        b.reserve(c, {iters, gnodes_per_cpu, degree + 1},
                  b.pagesIn(region[c], gnodes_per_cpu * p.blockSize) +
                      iters + 2);
        b.touchRange(c, region[c], gnodes_per_cpu * p.blockSize);
    }

    // Static edge lists: 15% of edges reference a uniformly random
    // graph node on a different SMP node.
    std::vector<std::vector<Addr>> nbrs(ncpus);
    for (CpuId c = 0; c < ncpus; ++c) {
        nbrs[c].reserve(gnodes_per_cpu * degree);
        for (std::size_t g = 0; g < gnodes_per_cpu; ++g) {
            for (std::size_t d = 0; d < degree; ++d) {
                CpuId src = c;
                if (b.rng().chance(remote_frac) && b.nnodes() > 1) {
                    NodeId other;
                    do {
                        other = static_cast<NodeId>(
                            b.rng().below(b.nnodes()));
                    } while (other == b.nodeOf(c));
                    src = static_cast<CpuId>(
                        other * b.cpusPerNode() +
                        b.rng().below(b.cpusPerNode()));
                }
                Addr a = region[src] +
                    b.rng().below(gnodes_per_cpu) * p.blockSize;
                nbrs[c].push_back(a);
            }
        }
    }

    b.barrier(); // placement completes before the parallel phase
    for (std::size_t it = 0; it < iters; ++it) {
        for (CpuId c = 0; c < ncpus; ++c) {
            for (std::size_t g = 0; g < gnodes_per_cpu; ++g) {
                for (std::size_t d = 0; d < degree; ++d)
                    b.read(c, nbrs[c][g * degree + d], 2);
                b.write(c, region[c] + g * p.blockSize, 2);
            }
        }
        b.barrier();
    }
    return b.finish();
}

} // namespace rnuma
