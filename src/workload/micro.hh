/**
 * @file
 * Microbenchmark workloads: small, analyzable reference patterns used
 * by the unit tests, the examples, and the worst-case (competitive
 * bound) validation bench.
 */

#ifndef RNUMA_WORKLOAD_MICRO_HH
#define RNUMA_WORKLOAD_MICRO_HH

#include <memory>

#include "common/params.hh"
#include "workload/workload.hh"

namespace rnuma
{

/**
 * Every CPU loops over a private, node-local array. No remote
 * traffic at all; all protocols should tie the infinite baseline.
 */
std::unique_ptr<Workload>
makePrivateLoop(const Params &p, std::size_t pages_per_cpu,
                std::size_t iters);

/**
 * CPU 0 of node 0 repeatedly reads a set of pages homed on node 1.
 * With enough repetitions and a working set bigger than the block
 * cache, this is the canonical "reuse page" pattern that favors
 * S-COMA and triggers R-NUMA relocation.
 */
std::unique_ptr<Workload>
makeHotRemoteReuse(const Params &p, std::size_t remote_pages,
                   std::size_t sweeps);

/**
 * Eviction-heavy reuse: like makeHotRemoteReuse, but the reader's
 * reuse set (@p remote_pages) is meant to exceed the page-cache
 * frame budget (Params::pageCacheFrames()). Relocated pages then
 * keep falling out of the page cache and re-qualifying, so the
 * relocate/evict ping-pong the hysteresis and adaptive policies
 * exist to manage actually happens — at small scales the single
 * hot-reuse pattern fits the caches and every policy ties.
 * Asserts remote_pages > frames so a misconfigured cell fails
 * loudly instead of silently degenerating back into hot reuse.
 */
std::unique_ptr<Workload>
makeEvictionStorm(const Params &p, std::size_t remote_pages,
                  std::size_t sweeps);

/**
 * Producer/consumer: node 0 writes a buffer, barrier, node 1 reads
 * it, barrier, repeat. Pure coherence misses — the canonical
 * "communication page" pattern where CC-NUMA wins and S-COMA pays
 * allocation for nothing.
 */
std::unique_ptr<Workload>
makeProducerConsumer(const Params &p, std::size_t pages,
                     std::size_t rounds);

/**
 * The worst case of the Section 3.2 model: for each of @p pages
 * remote pages, one CPU generates exactly enough capacity refetches
 * on one block to cross the relocation threshold, then never touches
 * the page again. R-NUMA pays T refetches + relocation + (eventual)
 * replacement; CC-NUMA pays only the refetches; S-COMA pays one
 * allocation. Used to validate EQ 1-3 empirically.
 *
 * @param touches_per_page remote fetches to generate per page
 *        (set to the relocation threshold + 1 to just trip R-NUMA)
 */
std::unique_ptr<Workload>
makeAdversary(const Params &p, std::size_t pages,
              std::size_t touches_per_page);

/**
 * All CPUs hammer read-write blocks on a single shared page homed on
 * node 0 (lock/counter pattern): read-write sharing that page
 * migration/replication cannot help (Section 1).
 */
std::unique_ptr<Workload>
makeRwSharing(const Params &p, std::size_t rounds);

/**
 * Machine-wide shift pattern for the scaling figure: every node owns
 * @p pages_per_node pages, and each node's first CPU repeatedly
 * reads the set owned by its antipodal partner, node
 * (n + N/2) mod N. Unlike the two-node micro patterns this exercises
 * every node and every home simultaneously, so interconnect topology
 * (hop counts, link contention) and directory size actually scale
 * with N — yet each page has exactly one remote reader, keeping
 * sparse sharer sets (limited-pointer, any width ≥ 1) exact.
 */
std::unique_ptr<Workload>
makeScalingShift(const Params &p, std::size_t pages_per_node,
                 std::size_t sweeps);

} // namespace rnuma

#endif // RNUMA_WORKLOAD_MICRO_HH
