/**
 * @file
 * moldyn: CHARMM-like molecular dynamics. Sharing signature: a
 * stable neighbor list makes every CPU re-read the same remote
 * particle positions several times per timestep (multiple passes over
 * the pair list), while owners rewrite positions only once per step.
 * The per-node remote working set (most of the particle array)
 * overflows the 32 KB block cache but fits easily in the 320 KB page
 * cache — the canonical reuse-page application where S-COMA shines
 * and CC-NUMA pays a stream of capacity refetches (the paper's
 * "CC-NUMA up to 179% slower" case). R-NUMA relocates the particle
 * pages after the first timestep and then performs like S-COMA.
 */

#include "workload/apps/apps.hh"

#include <vector>

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeMoldyn(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("moldyn", p, seed ^ 0x3014ULL);
    const std::size_t particles = scaled(2048, scale);
    const std::size_t particle_bytes = 64; // position + velocity
    const std::size_t partners = 24;
    const std::size_t passes = 2;
    const std::size_t iters = 10;
    const std::size_t ncpus = b.ncpus();
    const std::size_t own = particles / ncpus ? particles / ncpus : 1;

    Addr base = b.allocBytes(particles * particle_bytes);
    // Per CPU: its particle pages and a barrier, then per iteration
    // passes * partners reads and one write per particle record block
    // for each owned particle, and a barrier; End.
    const std::size_t record_blocks = p.blockSize < particle_bytes ? 2 : 1;
    for (CpuId c = 0; c < ncpus; ++c) {
        b.reserve(c, {iters, own, passes * partners + record_blocks},
                  b.pagesIn(base + c * own * particle_bytes,
                            own * particle_bytes) +
                      iters + 2);
        b.touchRange(c, base + c * own * particle_bytes,
                     own * particle_bytes);
    }

    // Static neighbor list: partners uniform over all particles.
    std::vector<std::vector<Addr>> pairs(ncpus);
    for (CpuId c = 0; c < ncpus; ++c) {
        pairs[c].reserve(own * partners);
        for (std::size_t i = 0; i < own; ++i) {
            for (std::size_t k = 0; k < partners; ++k) {
                std::size_t q = static_cast<std::size_t>(
                    b.rng().below(particles));
                pairs[c].push_back(base + q * particle_bytes);
            }
        }
    }

    b.barrier(); // placement completes before the parallel phase
    for (std::size_t it = 0; it < iters; ++it) {
        // Force computation: several passes over the pair list
        // (two-body terms, then symmetrization / cutoff updates).
        for (std::size_t pass = 0; pass < passes; ++pass) {
            for (CpuId c = 0; c < ncpus; ++c)
                for (Addr a : pairs[c])
                    b.read(c, a, 6);
        }
        // Integration: rewrite owned positions (invalidating the
        // copies the consumers cached). A particle record spans two
        // blocks only while blockSize < particle_bytes; with larger
        // blocks the second write would land in the next particle —
        // and past the array for the last one.
        for (CpuId c = 0; c < ncpus; ++c) {
            Addr mine = base + c * own * particle_bytes;
            for (std::size_t i = 0; i < own; ++i) {
                b.write(c, mine + i * particle_bytes, 3);
                if (record_blocks == 2)
                    b.write(c,
                            mine + i * particle_bytes + p.blockSize,
                            3);
            }
        }
        b.barrier();
    }
    return b.finish();
}

} // namespace rnuma
