/**
 * @file
 * radix: parallel integer radix sort (SPLASH-2, radix 1024). Sharing
 * signature: the permutation phase gives every node ~1024 open
 * destination runs — one per digit — scattered across essentially
 * every page of the destination array. The active block set (~32 KB
 * per node) just fits CC-NUMA's block cache, while the page-level
 * footprint (hundreds of concurrently written remote pages) swamps
 * the 80-frame page cache: the paper's "S-COMA up to 315% slower"
 * case. Refetches are spread almost uniformly over the remote pages
 * (Figure 5's flat radix curve), so R-NUMA's threshold fires on many
 * pages and relocated pages bounce — R-NUMA trails CC-NUMA by a
 * bounded margin (the paper's worst observed 57%).
 */

#include "workload/apps/apps.hh"

#include <vector>

#include "workload/synthetic.hh"

namespace rnuma
{

std::unique_ptr<Workload>
makeRadix(const Params &p, double scale, std::uint64_t seed)
{
    StreamBuilder b("radix", p, seed ^ 0x4ad1ULL);
    const std::size_t keys = scaled(524288, scale);
    const std::size_t digits = 512; // radix, scaled with the input
    const std::size_t passes = 2;
    const std::size_t ncpus = b.ncpus();
    const std::size_t keys_per_cpu = keys / ncpus ? keys / ncpus : 1;
    const std::size_t key_bytes = 4;
    // Blocks narrower than a key still hold (at least) one key for
    // the purposes of the block-granular streaming below; without
    // the clamp the stride arithmetic divides by zero.
    const std::size_t keys_per_block = p.blockSize > key_bytes
        ? p.blockSize / key_bytes : 1;
    // Hoisted: the appends store through size_t fields the compiler
    // cannot tell from p's, so a call in the loop divides per entry.
    const std::size_t blocks_per_page = p.blocksPerPage();
    const std::size_t keys_per_page = p.pageSize / key_bytes;

    // Per-digit, per-node destination sub-runs: digit-major layout,
    // each (digit, node) run holds keys/digits/nodes keys. A block of
    // padding per digit region breaks the power-of-two stride that
    // would otherwise alias every 16th digit onto the same
    // direct-mapped block-cache set (SPLASH-2 codes pad for the same
    // reason).
    const std::size_t run_keys = keys / digits / b.nnodes()
        ? keys / digits / b.nnodes() : 1;
    const std::size_t digit_keys = run_keys * b.nnodes() +
        keys_per_block;

    // Source and destination arrays (the destination is sized for
    // the padded layout); pages homed round-robin so the scatter is
    // 7/8 remote. (SPLASH-2 radix swaps the arrays each pass.)
    std::size_t array_bytes = digits * digit_keys * key_bytes;
    if (array_bytes < keys * key_bytes)
        array_bytes = keys * key_bytes;
    Addr src = b.allocBytes(array_bytes);
    Addr dst = b.allocBytes(array_bytes);
    std::size_t array_pages = (array_bytes + p.pageSize - 1) /
        p.pageSize;
    // Global histogram page (read-write shared by everyone).
    Addr hist = b.allocPages(1);

    // Per CPU: on a node lead, a source and a destination touch per
    // page homed on its node; the histogram page on CPU 0; a barrier;
    // per pass, a read per whole key block, 32 histogram reads and
    // writes and a barrier, then a read per started key block, a
    // write per key and a barrier; End.
    const std::size_t whole_blocks = keys_per_cpu / keys_per_block;
    const std::size_t started_blocks =
        (keys_per_cpu + keys_per_block - 1) / keys_per_block;
    for (CpuId c = 0; c < ncpus; ++c) {
        NodeId n = b.nodeOf(c);
        b.reserve(c, {passes, keys_per_cpu + whole_blocks +
                                  started_blocks + 2 * 32 + 2},
                  (c == n * b.cpusPerNode()
                       ? 2 * b.roundRobinPages(n, array_pages) : 0) +
                      (c == 0) + 2);
    }

    for (std::size_t pg = 0; pg < array_pages; ++pg) {
        CpuId t = static_cast<CpuId>((pg % b.nnodes()) *
                                     b.cpusPerNode());
        b.touch(t, src + pg * p.pageSize);
        b.touch(t, dst + pg * p.pageSize);
    }
    b.touch(0, hist);

    // Each (digit, node) run is written cyclically: a cursor holds
    // the next position in its run, already wrapped.
    auto run_addr = [&](Addr array, std::size_t digit, NodeId n,
                        std::size_t pos) {
        std::size_t idx = digit * digit_keys + n * run_keys + pos;
        return array + idx * key_bytes;
    };

    b.barrier(); // placement completes before the parallel phase
    std::vector<std::vector<std::size_t>> cursor(
        b.nnodes(), std::vector<std::size_t>(digits, 0));

    for (std::size_t pass = 0; pass < passes; ++pass) {
        Addr from = pass % 2 == 0 ? src : dst;
        Addr to = pass % 2 == 0 ? dst : src;
        for (auto &v : cursor)
            for (auto &x : v)
                x = 0;

        // Histogram: stream over the node-local key pages
        // (block-granular reads; 'think' models per-key digit
        // extraction) and fold into the shared histogram page.
        for (CpuId c = 0; c < ncpus; ++c) {
            NodeId n = b.nodeOf(c);
            // Each CPU starts on a distinct page of its node's
            // stripe; tiny inputs have fewer pages than CPUs, so
            // wrap rather than stream past the array.
            std::size_t pg = n + (c % b.cpusPerNode()) * b.nnodes();
            if (pg >= array_pages)
                pg %= array_pages;
            std::size_t consumed = 0;
            for (std::size_t k = 0; k < whole_blocks; ++k) {
                if (consumed == blocks_per_page) {
                    pg += b.nnodes() * b.cpusPerNode();
                    if (pg >= array_pages)
                        pg = n % array_pages;
                    consumed = 0;
                }
                b.read(c, from + pg * p.pageSize +
                           consumed * p.blockSize, 8);
                consumed++;
            }
            for (std::size_t h = 0; h < 32; ++h) {
                Addr a = hist + ((c + h) % blocks_per_page) *
                    p.blockSize;
                b.read(c, a, 2);
                b.write(c, a, 2);
            }
        }
        b.barrier();

        // Permutation: read the keys the node holds locally (each
        // pass re-partitions so a processor consumes its own node's
        // pages, as in SPLASH-2 radix) and write each key to the
        // open run for its digit. Writes scatter remotely; reads
        // stay local — radix's refetch traffic is write-dominated
        // on mostly read-only-shared pages (Table 4: 15%).
        for (CpuId c = 0; c < ncpus; ++c) {
            NodeId n = b.nodeOf(c);
            std::size_t local_pg = n +
                (c % b.cpusPerNode()) * b.nnodes();
            if (local_pg >= array_pages)
                local_pg %= array_pages;
            Addr mine = from + local_pg * p.pageSize;
            std::size_t stride = b.nnodes() * b.cpusPerNode();
            std::size_t consumed = 0;
            // Keys left in the block last read and in the page it
            // is on: a page holds whole blocks, so both run out
            // together at a page boundary.
            std::size_t block_left = 0;
            std::size_t page_left = keys_per_page;
            for (std::size_t k = 0; k < keys_per_cpu; ++k) {
                if (block_left == 0) {
                    // Advance through the node's own pages.
                    if (page_left == 0) {
                        local_pg += stride;
                        if (local_pg >= array_pages)
                            local_pg = n % array_pages;
                        mine = from + local_pg * p.pageSize;
                        consumed = 0;
                        page_left = keys_per_page;
                    }
                    b.read(c, mine + consumed * p.blockSize, 2);
                    consumed++;
                    block_left = keys_per_block;
                }
                block_left--;
                page_left--;
                std::size_t digit = static_cast<std::size_t>(
                    b.rng().below(digits));
                std::size_t &pos = cursor[n][digit];
                b.write(c, run_addr(to, digit, n, pos), 1);
                if (++pos == run_keys)
                    pos = 0;
            }
        }
        b.barrier();
    }
    return b.finish();
}

} // namespace rnuma
