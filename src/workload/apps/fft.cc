/**
 * @file
 * fft: complex 1-D radix-sqrt(n) six-step FFT (SPLASH-2). Sharing
 * signature: staged all-to-all transposes between purely local
 * compute phases. Every remote block is read exactly once per
 * transpose and then rewritten by its owner, so there are no
 * capacity/conflict refetches at all — the paper omits fft from
 * Figure 5 for exactly this reason. The transpose sweeps touch
 * nearly every remote page once, overwhelming the S-COMA page cache
 * with useless allocations (Section 5.2).
 */

#include "workload/apps/apps.hh"

#include <vector>

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeFft(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("fft", p, seed ^ 0xff70ULL);
    const std::size_t points = scaled(65536, scale);
    const std::size_t point_bytes = 16; // complex double
    const std::size_t ncpus = b.ncpus();
    const std::size_t np = points / ncpus ? points / ncpus : 1;

    std::vector<Addr> region(ncpus);
    for (CpuId c = 0; c < ncpus; ++c) {
        region[c] = b.allocBytes(np * point_bytes);
        // Its region's pages and a barrier, then a read and a write
        // per owned point and a barrier in each of the three
        // transposes and two compute phases; End.
        b.reserve(c, {5, np, 2},
                  b.pagesIn(region[c], np * point_bytes) + 5 + 2);
        b.touchRange(c, region[c], np * point_bytes);
    }
    b.barrier(); // placement completes before the parallel phase

    auto compute = [&]() {
        // Local butterfly phase: stream over the owned partition.
        for (CpuId c = 0; c < ncpus; ++c) {
            for (std::size_t i = 0; i < np; ++i) {
                Addr a = region[c] + i * point_bytes;
                b.read(c, a, 6);
                b.write(c, a, 6);
            }
        }
        b.barrier();
    };

    auto transpose = [&](std::size_t phase) {
        // All-to-all: each CPU gathers contiguous chunks — its "row"
        // of the sqrt(n) x sqrt(n) matrix — from every other CPU's
        // region and writes its own partition. Each remote point is
        // read exactly once, in address order, so consecutive reads
        // of a block come from the same CPU (no refetches: the paper
        // omits fft from Figure 5 for this reason).
        const std::size_t chunk = np / ncpus ? np / ncpus : 1;
        for (CpuId c = 0; c < ncpus; ++c) {
            for (std::size_t i = 0; i < np; ++i) {
                CpuId src = static_cast<CpuId>(
                    (c + phase + i / chunk) % ncpus);
                // Each transpose stage gathers a different stripe of
                // the sqrt(n) x sqrt(n) matrix, so the set of remote
                // pages a node touches grows stage by stage past the
                // 80-frame page cache.
                std::size_t idx = (((c * 13 + phase * 5) % ncpus) * chunk +
                                   i % chunk) % np;
                b.read(c, region[src] + idx * point_bytes, 2);
                b.write(c, region[c] + i * point_bytes, 2);
            }
        }
        b.barrier();
    };

    // Six-step: transpose, FFT columns, transpose, twiddle+FFT,
    // transpose (last transpose optional; we include it).
    transpose(0);
    compute();
    transpose(1);
    compute();
    transpose(2);
    return b.finish();
}

} // namespace rnuma
