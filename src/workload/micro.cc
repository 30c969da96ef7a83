#include "workload/micro.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "workload/synthetic.hh"

namespace rnuma
{

namespace
{

/** First CPU of a node. */
CpuId
firstCpuOf(const Params &p, NodeId node)
{
    return static_cast<CpuId>(node * p.cpusPerNode);
}

/**
 * Reserve for a sweep micro: @p owner touches the @p pages pages,
 * @p reader reads every block of them @p sweeps times, and every CPU
 * also holds a barrier and End.
 */
void
reserveSweeps(StreamBuilder &b, CpuId owner, std::size_t pages,
              CpuId reader, std::size_t sweeps)
{
    const Params &p = b.params();
    for (CpuId c = 0; c < p.numCpus(); ++c) {
        b.reserve(c, {c == reader ? sweeps : 0, pages, p.blocksPerPage()},
                  (c == owner ? pages : 0) + 2);
    }
}

} // namespace

std::unique_ptr<Workload>
makePrivateLoop(const Params &p, std::size_t pages_per_cpu,
                std::size_t iters)
{
    StreamBuilder b("private-loop", p, 0x11);
    // Per CPU: its pages, a barrier, a read and a write per block of
    // them per iteration, End.
    b.reserveEach({iters, pages_per_cpu, p.blocksPerPage(), 2},
                  pages_per_cpu + 2);
    std::vector<Addr> base(p.numCpus());
    for (CpuId c = 0; c < p.numCpus(); ++c) {
        base[c] = b.allocPages(pages_per_cpu);
        b.touchRange(c, base[c], pages_per_cpu * p.pageSize);
    }
    b.barrier(); // placement completes before the parallel phase
    for (std::size_t it = 0; it < iters; ++it) {
        for (CpuId c = 0; c < p.numCpus(); ++c) {
            for (std::size_t pg = 0; pg < pages_per_cpu; ++pg) {
                for (std::size_t blk = 0; blk < p.blocksPerPage();
                     ++blk) {
                    Addr a = base[c] + pg * p.pageSize +
                        blk * p.blockSize;
                    b.read(c, a);
                    b.write(c, a);
                }
            }
        }
    }
    return b.finish();
}

std::unique_ptr<Workload>
makeHotRemoteReuse(const Params &p, std::size_t remote_pages,
                   std::size_t sweeps)
{
    RNUMA_ASSERT(p.numNodes >= 2, "needs at least two nodes");
    StreamBuilder b("hot-remote-reuse", p, 0x22);
    Addr data = b.allocPages(remote_pages);
    CpuId owner = firstCpuOf(p, 1);
    CpuId reader = firstCpuOf(p, 0);
    reserveSweeps(b, owner, remote_pages, reader, sweeps);
    b.touchRange(owner, data, remote_pages * p.pageSize);
    b.barrier(); // placement completes before the parallel phase
    for (std::size_t s = 0; s < sweeps; ++s) {
        for (std::size_t pg = 0; pg < remote_pages; ++pg) {
            for (std::size_t blk = 0; blk < p.blocksPerPage(); ++blk) {
                b.read(reader,
                       data + pg * p.pageSize + blk * p.blockSize);
            }
        }
    }
    return b.finish();
}

std::unique_ptr<Workload>
makeEvictionStorm(const Params &p, std::size_t remote_pages,
                  std::size_t sweeps)
{
    RNUMA_ASSERT(p.numNodes >= 2, "needs at least two nodes");
    RNUMA_ASSERT(remote_pages > p.pageCacheFrames(),
                 "eviction storm needs more pages (", remote_pages,
                 ") than page-cache frames (", p.pageCacheFrames(),
                 "); use makeHotRemoteReuse for in-cache reuse");
    StreamBuilder b("eviction-storm", p, 0x66);
    Addr data = b.allocPages(remote_pages);
    CpuId owner = firstCpuOf(p, 1);
    CpuId reader = firstCpuOf(p, 0);
    reserveSweeps(b, owner, remote_pages, reader, sweeps);
    b.touchRange(owner, data, remote_pages * p.pageSize);
    b.barrier(); // placement completes before the parallel phase
    // The same sequential sweep as hot reuse, but over a reuse set
    // wider than the page cache: every page accumulates a full
    // page's worth of block refetches per sweep (the working set
    // also exceeds every block cache), relocates, and is then
    // evicted again when the pages beyond the frame budget arrive.
    for (std::size_t s = 0; s < sweeps; ++s) {
        for (std::size_t pg = 0; pg < remote_pages; ++pg) {
            for (std::size_t blk = 0; blk < p.blocksPerPage(); ++blk) {
                b.read(reader,
                       data + pg * p.pageSize + blk * p.blockSize);
            }
        }
    }
    return b.finish();
}

std::unique_ptr<Workload>
makeProducerConsumer(const Params &p, std::size_t pages,
                     std::size_t rounds)
{
    RNUMA_ASSERT(p.numNodes >= 2, "needs at least two nodes");
    StreamBuilder b("producer-consumer", p, 0x33);
    Addr buf = b.allocPages(pages);
    CpuId prod = firstCpuOf(p, 0);
    CpuId cons = firstCpuOf(p, 1);
    // Per CPU: the producer's pages, a barrier, two barriers per
    // round, End; per round the producer writes and the consumer
    // reads every block.
    for (CpuId c = 0; c < p.numCpus(); ++c) {
        bool active = c == prod || c == cons;
        b.reserve(c, {active ? rounds : 0, pages, p.blocksPerPage()},
                  (c == prod ? pages : 0) + 2 * rounds + 2);
    }
    b.touchRange(prod, buf, pages * p.pageSize);
    b.barrier(); // placement completes before the parallel phase
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t pg = 0; pg < pages; ++pg)
            for (std::size_t blk = 0; blk < p.blocksPerPage(); ++blk)
                b.write(prod, buf + pg * p.pageSize + blk * p.blockSize);
        b.barrier();
        for (std::size_t pg = 0; pg < pages; ++pg)
            for (std::size_t blk = 0; blk < p.blocksPerPage(); ++blk)
                b.read(cons, buf + pg * p.pageSize + blk * p.blockSize);
        b.barrier();
    }
    return b.finish();
}

std::unique_ptr<Workload>
makeAdversary(const Params &p, std::size_t pages,
              std::size_t touches_per_page)
{
    RNUMA_ASSERT(p.numNodes >= 2, "needs at least two nodes");
    StreamBuilder b("adversary", p, 0x44);
    CpuId owner = firstCpuOf(p, 1);
    CpuId victim = firstCpuOf(p, 0);

    // Pairs of blocks exactly one (largest) block-cache capacity
    // apart, so the two blocks conflict in every direct-mapped cache
    // in the system (L1, CC-NUMA block cache, R-NUMA block cache —
    // all power-of-two sizes dividing the stride). Alternating reads
    // make every access a capacity/conflict refetch.
    std::size_t stride = std::max(
        {p.blockCacheSize, p.l1Size, p.rnumaBlockCacheSize});
    std::size_t pages_per_half = stride / p.pageSize;
    if (pages_per_half == 0)
        pages_per_half = 1;

    std::size_t npairs = (pages + 1) / 2;
    // Per CPU: the owner's pages, a barrier, the victim's two reads
    // per touch of each pair, End.
    for (CpuId c = 0; c < p.numCpus(); ++c) {
        b.reserve(c, {c == victim ? npairs : 0, touches_per_page, 2},
                  (c == owner ? npairs * 2 * pages_per_half : 0) + 2);
    }
    std::vector<std::pair<Addr, Addr>> pairs;
    for (std::size_t pair = 0; pair < npairs; ++pair) {
        Addr chunk = b.allocPages(2 * pages_per_half);
        b.touchRange(owner, chunk, 2 * pages_per_half * p.pageSize);
        pairs.emplace_back(chunk,
                           chunk + pages_per_half * p.pageSize);
    }
    b.barrier(); // placement completes before the parallel phase
    for (auto [a, c] : pairs) {
        for (std::size_t t = 0; t < touches_per_page; ++t) {
            b.read(victim, a, 2);
            b.read(victim, c, 2);
        }
        // The pages are never referenced again: the Section 3.2
        // worst case for R-NUMA.
    }
    return b.finish();
}

std::unique_ptr<Workload>
makeRwSharing(const Params &p, std::size_t rounds)
{
    StreamBuilder b("rw-sharing", p, 0x55);
    // Per CPU: the page on CPU 0, a barrier, a read and a write per
    // round, End.
    for (CpuId c = 0; c < p.numCpus(); ++c)
        b.reserve(c, {rounds, 2}, (c == firstCpuOf(p, 0)) + 2);
    Addr page = b.allocPages(1);
    b.touchRange(firstCpuOf(p, 0), page, p.pageSize);
    b.barrier(); // placement completes before the parallel phase
    for (std::size_t r = 0; r < rounds; ++r) {
        for (CpuId c = 0; c < p.numCpus(); ++c) {
            std::size_t blk = (r + c) % p.blocksPerPage();
            Addr a = page + blk * p.blockSize;
            b.read(c, a, 2);
            b.write(c, a, 2);
        }
    }
    return b.finish();
}

std::unique_ptr<Workload>
makeScalingShift(const Params &p, std::size_t pages_per_node,
                 std::size_t sweeps)
{
    RNUMA_ASSERT(p.numNodes >= 2, "needs at least two nodes");
    StreamBuilder b("scaling-shift", p, 0x77);
    // Per CPU: on a node's first CPU, its pages and a read per block
    // of its partner's pages per sweep; a barrier and End on all.
    for (CpuId c = 0; c < p.numCpus(); ++c) {
        bool lead = c % p.cpusPerNode == 0;
        b.reserve(c, {lead ? sweeps : 0, pages_per_node, p.blocksPerPage()},
                  (lead ? pages_per_node : 0) + 2);
    }
    std::vector<Addr> owned(p.numNodes);
    for (NodeId n = 0; n < p.numNodes; ++n) {
        owned[n] = b.allocPages(pages_per_node);
        b.touchRange(firstCpuOf(p, n), owned[n],
                     pages_per_node * p.pageSize);
    }
    b.barrier(); // placement completes before the parallel phase
    NodeId half = p.numNodes / 2;
    for (std::size_t s = 0; s < sweeps; ++s) {
        for (std::size_t pg = 0; pg < pages_per_node; ++pg) {
            for (std::size_t blk = 0; blk < p.blocksPerPage();
                 ++blk) {
                // Round-robin across readers per block so all nodes
                // drive the interconnect concurrently.
                for (NodeId n = 0; n < p.numNodes; ++n) {
                    NodeId partner = (n + half) % p.numNodes;
                    b.read(firstCpuOf(p, n),
                           owned[partner] + pg * p.pageSize +
                               blk * p.blockSize);
                }
            }
        }
    }
    return b.finish();
}

} // namespace rnuma
