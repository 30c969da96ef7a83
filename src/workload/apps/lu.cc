/**
 * @file
 * lu: blocked dense LU factorization (SPLASH-2, 512x512 matrix,
 * 16x16 blocks). Sharing signature: at step k the perimeter blocks of
 * row/column k are read by every interior-block owner, several times
 * per step. The per-step remote reuse set (up to ~100 KB) overflows
 * even the 32 KB block cache (the paper's third category in
 * Figure 7, where CC-NUMA degrades up to 7x with a 1 KB cache), but
 * mostly fits the page cache. Block ownership is deliberately skewed
 * so two nodes own half the interior — reproducing the small-input
 * load imbalance the paper blames for lu's page replacements landing
 * on the critical path (Sections 5.2 and 5.5).
 */

#include "workload/apps/apps.hh"

#include <algorithm>
#include <vector>

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeLu(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("lu", p, seed ^ 0x1004ULL);
    // Blocks per side. The elimination loops below need at least a
    // 2x2 grid to emit any memory references (a 1x1 factorization
    // has no perimeter or interior), so clamp there at tiny scales.
    const std::size_t grid = scaled(16, scale, 2);
    const std::size_t mb = 8192;                // matrix block bytes
    const std::size_t mblocks = mb / p.blockSize;

    // Skewed owner map: nodes 0 and 1 together own half the blocks.
    auto owner_node = [&](std::size_t i, std::size_t j) -> NodeId {
        static const NodeId table[16] = {0, 0, 0, 0, 1, 1, 1, 1,
                                         2, 3, 4, 5, 6, 7, 2, 3};
        NodeId n = table[(i * grid + j) % 16];
        return n % static_cast<NodeId>(b.nnodes());
    };
    auto owner_cpu = [&](std::size_t i, std::size_t j) -> CpuId {
        NodeId n = owner_node(i, j);
        return static_cast<CpuId>(n * b.cpusPerNode() +
                                  (i + j) % b.cpusPerNode());
    };

    Addr base = b.allocBytes(grid * grid * mb);
    auto blk_addr = [&](std::size_t i, std::size_t j) {
        return base + (i * grid + j) * mb;
    };
    // The owner of block (i,j) touches it, sweeps it twice when step
    // min(i,j) factors it (the diagonal) or updates it (the
    // perimeter) — every block but the last diagonal one — and three
    // times per earlier step as an interior block. Per CPU: those
    // touches and mblocks entries per sweep, a barrier, three per
    // step, and End. The skewed owner map makes the split very
    // uneven, so each CPU reserves its own count.
    std::vector<std::size_t> touches(b.ncpus(), 0);
    std::vector<std::size_t> sweeps(b.ncpus(), 0);
    for (std::size_t i = 0; i < grid; ++i) {
        for (std::size_t j = 0; j < grid; ++j) {
            CpuId c = owner_cpu(i, j);
            touches[c]++;
            sweeps[c] += 3 * std::min(i, j) +
                (i + 1 < grid || j + 1 < grid ? 2 : 0);
        }
    }
    for (CpuId c = 0; c < b.ncpus(); ++c)
        b.reserve(c, {sweeps[c], mblocks}, touches[c] + 3 * (grid - 1) + 2);

    for (std::size_t i = 0; i < grid; ++i)
        for (std::size_t j = 0; j < grid; ++j)
            b.touch(owner_cpu(i, j), blk_addr(i, j));

    auto sweep = [&](CpuId c, Addr a, bool write, std::size_t stride) {
        for (std::size_t k = 0; k < mblocks; k += stride) {
            if (write)
                b.write(c, a + k * p.blockSize, 2);
            else
                b.read(c, a + k * p.blockSize, 2);
        }
    };

    b.barrier(); // placement completes before the parallel phase
    for (std::size_t k = 0; k + 1 < grid; ++k) {
        // Factor the diagonal block.
        CpuId dc = owner_cpu(k, k);
        sweep(dc, blk_addr(k, k), false, 1);
        sweep(dc, blk_addr(k, k), true, 1);
        b.barrier();

        // Perimeter: row k and column k blocks read the diagonal and
        // update themselves.
        for (std::size_t j = k + 1; j < grid; ++j) {
            CpuId rc = owner_cpu(k, j);
            sweep(rc, blk_addr(k, k), false, 1);
            sweep(rc, blk_addr(k, j), true, 1);
            CpuId cc = owner_cpu(j, k);
            sweep(cc, blk_addr(k, k), false, 1);
            sweep(cc, blk_addr(j, k), true, 1);
        }
        b.barrier();

        // Interior update: block (i,j) -= L(i,k) * U(k,j). A node
        // re-reads each perimeter block once per interior block it
        // owns in that row/column; the intervening updates stream
        // several matrix blocks through the caches, so the reuse
        // distance exceeds the 32 KB block cache (Figure 7's third
        // category: lu's primary working set misses even b=32K).
        for (std::size_t i = k + 1; i < grid; ++i) {
            for (std::size_t j = k + 1; j < grid; ++j) {
                CpuId c = owner_cpu(i, j);
                sweep(c, blk_addr(i, k), false, 1);
                sweep(c, blk_addr(k, j), false, 1);
                sweep(c, blk_addr(i, j), true, 1);
            }
        }
        b.barrier();
    }
    return b.finish();
}

} // namespace rnuma
