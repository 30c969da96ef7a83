/**
 * @file
 * cholesky: blocked sparse Cholesky factorization (SPLASH-2, tk16.O).
 * Sharing signature: left-looking supernodal updates — once a panel
 * is factored by its owner, many later updates on other nodes re-read
 * it repeatedly. The per-node, per-step reuse set (~128 KB of recent
 * panels) overflows the 32 KB block cache but fits the 320 KB page
 * cache, so S-COMA and (after relocation) R-NUMA win while CC-NUMA
 * refetches. Panels are written before they are read-shared, largely
 * in a producer/consumer fashion, so only a modest fraction of
 * refetches come from read-write pages (Table 4: 28%).
 */

#include "workload/apps/apps.hh"

#include <vector>

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeCholesky(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("cholesky", p, seed ^ 0xc401ULL);
    const std::size_t panels = scaled(96, scale);
    const std::size_t steps = panels / 3 ? panels / 3 : 1;
    const std::size_t reads_per_step = 3; // panels re-read per cpu
    // Hoisted: the appends store through size_t fields the compiler
    // cannot tell from p's, so a call in the loop divides per entry.
    const std::size_t blocks_per_page = p.blocksPerPage();
    // 96 of the base machine's 128 blocks per panel page; clamped
    // because a panel is exactly one page — on small-page
    // configurations sampling 96 blocks would run off the panel
    // into its neighbors (and past the last allocation).
    const std::size_t sample_blocks =
        blocks_per_page < 96 ? blocks_per_page : 96;
    const std::size_t passes = 2;
    const std::size_t ncpus = b.ncpus();

    // One page per panel, owned round-robin by CPU.
    std::vector<Addr> panel(panels);
    for (std::size_t k = 0; k < panels; ++k)
        panel[k] = b.allocPages(1);
    // A small shared task queue (supplies the read-write component).
    Addr queue = b.allocPages(1);

    // Per CPU: its panel pages (and the queue page on CPU 0) and a
    // barrier; a page of writes per panel it factors (the first
    // 3 * steps); per step the update reads, a queue read and write
    // and two barriers; End.
    const std::size_t factored = 3 * steps < panels ? 3 * steps : panels;
    // How many of the panels k < n CPU c owns.
    auto owned = [&](std::size_t n, CpuId c) {
        return n / ncpus + (c < n % ncpus);
    };
    for (CpuId c = 0; c < ncpus; ++c) {
        b.reserve(c, {steps, passes * reads_per_step * sample_blocks + 4},
                  owned(panels, c) + (c == 0) +
                      owned(factored, c) * blocks_per_page + 2);
    }

    for (std::size_t k = 0; k < panels; ++k)
        b.touch(static_cast<CpuId>(k % ncpus), panel[k]);
    b.touch(0, queue);

    b.barrier(); // placement completes before the parallel phase
    for (std::size_t s = 0; s < steps; ++s) {
        // Factor phase: owners of the three panels that become ready
        // this step write them (homes are local, consumers get
        // invalidated).
        for (std::size_t k = 3 * s; k < 3 * s + 3 && k < panels; ++k) {
            CpuId owner = static_cast<CpuId>(k % ncpus);
            for (std::size_t blk = 0; blk < blocks_per_page; ++blk)
                b.write(owner, panel[k] + blk * p.blockSize, 2);
        }
        b.barrier();

        std::size_t ready = 3 * s + 3 < panels ? 3 * s + 3 : panels;
        // Update phase: every cpu applies updates that re-read a
        // handful of recently factored panels several times. The
        // recency window matches left-looking factorization, where a
        // panel stays hot across several subsequent steps (this is
        // what lets S-COMA and R-NUMA amortize page operations).
        std::size_t window = ready < 12 ? ready : 12;
        for (CpuId c = 0; c < ncpus; ++c) {
            std::vector<std::size_t> chosen(reads_per_step);
            for (auto &k : chosen)
                k = ready - window +
                    static_cast<std::size_t>(b.rng().below(window));
            for (std::size_t pass = 0; pass < passes; ++pass) {
                for (std::size_t k : chosen) {
                    for (std::size_t blk = 0; blk < sample_blocks;
                         ++blk) {
                        b.read(c, panel[k] + blk * p.blockSize, 2);
                    }
                }
            }
            // Task-queue interaction (read-write shared).
            Addr a = queue + (s + c) % blocks_per_page * p.blockSize;
            b.read(c, a, 2);
            b.write(c, a, 2);
        }
        b.barrier();
    }
    return b.finish();
}

} // namespace rnuma
