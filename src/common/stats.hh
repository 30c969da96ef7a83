/**
 * @file
 * Statistics collected during a simulation run. One RunStats instance
 * aggregates machine-wide counters plus the per-page bookkeeping
 * needed to reproduce Figure 5 and Table 4 of the paper.
 */

#ifndef RNUMA_COMMON_STATS_HH
#define RNUMA_COMMON_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/page_indexed.hh"
#include "common/types.hh"

namespace rnuma
{

/**
 * Per-remote-page bookkeeping (aggregated over all nodes).
 *
 * A page is classified as read-write shared (Table 4, column 2) when
 * non-home nodes have both read and written it.
 */
struct PageStats
{
    /** Block refetches (capacity/conflict remote misses) on the page. */
    std::uint64_t refetches = 0;
    /** All remote fetches (cold + coherence + refetch) on the page. */
    std::uint64_t remoteFetches = 0;
    /** Some non-home node read the page. */
    bool remoteRead = false;
    /** Some non-home node wrote the page. */
    bool remoteWrite = false;

    bool readWriteShared() const { return remoteRead && remoteWrite; }
};

/**
 * Per-kind interconnect message counters, indexed by MsgKind. The
 * value-semantic normalization of the NetworkModel accessors, carried
 * in RunStats and the JSON sinks (v5 schema).
 */
struct NetworkStats
{
    std::uint64_t messages[numMsgKinds] = {};

    std::uint64_t count(MsgKind kind) const
    {
        return messages[static_cast<std::size_t>(kind)];
    }

    std::uint64_t totalMessages() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t m : messages)
            total += m;
        return total;
    }
};

/**
 * Classification of a remote block fetch (see docs/ARCHITECTURE.md,
 * "`src/proto` — global coherence").
 */
enum class MissKind : std::uint8_t
{
    Cold,      ///< first fetch of this block by this node
    Coherence, ///< the node lost its copy to an invalidation
    Refetch    ///< capacity/conflict: the directory thought it had it
};

/** All counters for one simulation run. */
struct RunStats
{
    /** Simulated execution time (max CPU completion tick). */
    Tick ticks = 0;

    /**
     * Discrete events processed by the scheduler during the run (the
     * denominator of the events-per-second throughput the perf gate
     * tracks). Deterministic, so it participates in bit-identity.
     */
    std::uint64_t events = 0;

    //--- Reference-stream counters --------------------------------------
    std::uint64_t refs = 0;        ///< memory references issued
    std::uint64_t l1Hits = 0;      ///< satisfied by the local L1
    std::uint64_t l1Misses = 0;    ///< required a bus transaction
    std::uint64_t upgrades = 0;    ///< write permission upgrades
    std::uint64_t barriers = 0;    ///< barrier episodes completed

    //--- Node-level service points ---------------------------------------
    std::uint64_t localFills = 0;      ///< fills from home-node memory
    std::uint64_t nodeTransfers = 0;   ///< on-node cache-to-cache fills
    std::uint64_t blockCacheHits = 0;  ///< fills from the block cache
    std::uint64_t pageCacheHits = 0;   ///< fine-grain tag hits (S-COMA)

    //--- Remote traffic ----------------------------------------------------
    std::uint64_t remoteFetches = 0;    ///< block fetches sent home
    std::uint64_t refetches = 0;        ///< ... classified Refetch
    std::uint64_t coherenceMisses = 0;  ///< ... classified Coherence
    std::uint64_t coldMisses = 0;       ///< ... classified Cold
    std::uint64_t invalidationsSent = 0;///< directory invalidations
    std::uint64_t forwards = 0;         ///< three-hop dirty forwards
    std::uint64_t writebacks = 0;       ///< voluntary block writebacks
    std::uint64_t flushedBlocks = 0;    ///< blocks flushed by page ops

    //--- OS / page events ----------------------------------------------------
    std::uint64_t pageFaults = 0;        ///< first-touch mapping faults
    std::uint64_t scomaAllocations = 0;  ///< page-cache frame allocations
    std::uint64_t scomaReplacements = 0; ///< page-cache victimizations
    std::uint64_t relocations = 0;       ///< R-NUMA CC->S-COMA moves
    /**
     * Residency-utility observability (R-NUMA evictions only): how
     * many victimized residencies earned zero page-cache hits — the
     * pure ping-pong relocations the feedback policies exist to
     * suppress — and the total hits evicted residencies served.
     */
    std::uint64_t evictionsZeroHit = 0;  ///< evictions that served 0 hits
    std::uint64_t evictedPageHits = 0;   ///< hits served by evicted pages

    //--- Time decomposition ---------------------------------------------------
    Tick busWait = 0;   ///< cycles queued for the node buses
    Tick niWait = 0;    ///< cycles queued at network interfaces
    Tick osCycles = 0;  ///< cycles spent in page faults/relocations
    Tick stallCycles = 0; ///< total CPU memory-stall cycles

    //--- Interconnect & directory footprint -----------------------------
    /** Per-kind message counts from the network model. */
    NetworkStats net;
    /** Live directory entries at end of run. */
    std::uint64_t dirEntries = 0;
    /**
     * Modeled directory storage in bits: live entries times the
     * per-entry cost of the configured sharer-set format (O(nodes)
     * for full-map, O(sharers) for the sparse formats).
     */
    std::uint64_t dirBits = 0;

    /**
     * Per-page statistics indexed by page number (addr / pageSize). A
     * page was fetched remotely exactly when its remoteFetches is
     * non-zero; the other slots are gaps.
     */
    PageIndexed<PageStats> pages;

    /** Record a remote fetch classification against a page. */
    void recordFetch(Addr page, MissKind kind, bool write);

    /**
     * Record write-sharing traffic on a page that is tracked as
     * remote by other nodes: a write (by the home or by a holder
     * upgrading in place) that invalidated remote copies. Table 4
     * classifies a page read-write when it incurs both read and
     * write coherence traffic.
     */
    void markSharedWrite(Addr page);

    /** Total remote pages that were ever fetched. */
    std::size_t remotePageCount() const;

    /**
     * Refetch counts per page, sorted descending: the raw series for
     * the Figure 5 cumulative-distribution plot.
     */
    std::vector<std::uint64_t> refetchDistribution() const;

    /** Fraction of refetches on read-write shared pages (Table 4). */
    double rwPageRefetchFraction() const;

    /** Human-readable dump of the headline counters. */
    void print(std::ostream &os) const;
};

/**
 * Field-by-field equality, including the per-page table. The sweep
 * driver uses this to assert that parallel cell execution is
 * bit-identical to serial execution.
 */
bool operator==(const PageStats &a, const PageStats &b);
bool operator==(const NetworkStats &a, const NetworkStats &b);
bool operator==(const RunStats &a, const RunStats &b);
inline bool operator!=(const NetworkStats &a, const NetworkStats &b)
{
    return !(a == b);
}
inline bool operator!=(const PageStats &a, const PageStats &b)
{
    return !(a == b);
}
inline bool operator!=(const RunStats &a, const RunStats &b)
{
    return !(a == b);
}

} // namespace rnuma

#endif // RNUMA_COMMON_STATS_HH
