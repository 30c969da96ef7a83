/**
 * @file
 * The home-node coherence protocol engine. All three systems
 * (CC-NUMA, S-COMA, R-NUMA) use this same directory protocol; they
 * differ only in where remote data is cached (Section 2). Requests
 * are processed atomically at the home (the paper's "blocking home";
 * see PAPER.md, "Simulated machine") with all message and controller
 * latencies charged, including three-hop forwards and invalidation
 * rounds.
 */

#ifndef RNUMA_PROTO_PROTOCOL_HH
#define RNUMA_PROTO_PROTOCOL_HH

#include <vector>

#include "common/params.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/bus.hh"
#include "mem/memory.hh"
#include "net/network.hh"
#include "proto/directory.hh"

namespace rnuma
{

/** Request types a node can send to a home. */
enum class ReqType : std::uint8_t
{
    GetS,    ///< read miss: need data, read permission
    GetX,    ///< write miss: need data, write permission
    Upgrade  ///< write to a locally valid read-only copy: permission only
};

/**
 * Downcalls from the protocol into the node caches: when the
 * directory invalidates or downgrades a node's copy, the node's L1s
 * and RAD structures must transition too. Implemented by Machine.
 */
class CoherenceSink
{
  public:
    virtual ~CoherenceSink() = default;

    /**
     * Remove every copy of @p block held on @p node (L1s, block
     * cache, fine-grain tags).
     * @return true if the node held the block dirty.
     */
    virtual bool invalidateNodeCopy(NodeId node, Addr block) = 0;

    /**
     * Downgrade @p node's copies of @p block to read-only/clean (a
     * remote read hit a dirty owner; the data has been written back
     * home).
     */
    virtual void downgradeNodeCopy(NodeId node, Addr block) = 0;
};

/** Where a page's home is; implemented by the first-touch policy. */
class Placement
{
  public:
    virtual ~Placement() = default;

    /** Home node of a page (the page must have been placed). */
    virtual NodeId homeOf(Addr page) const = 0;
};

/** Outcome of a fetch processed by the home. */
struct FetchResult
{
    /** Completion tick: data (and all invalidation acks) arrived. */
    Tick done = 0;
    /** Miss classification (refetch detection per Section 3.1). */
    MissKind kind = MissKind::Cold;
    /** Data was forwarded from a dirty third-node owner. */
    bool threeHop = false;
    /** Number of remote copies invalidated. */
    int invalidations = 0;
};

/**
 * The machine-wide protocol engine: directory + home controllers +
 * network transactions.
 */
class GlobalProtocol
{
  public:
    /**
     * @param params   system parameters
     * @param net      the interconnect
     * @param placement page-home mapping
     * @param sink     cache downcall interface
     * @param memories one Memory per node (home data accesses contend
     *                 with that node's local traffic)
     */
    GlobalProtocol(const Params &params, NetworkModel &net,
                   const Placement &placement, CoherenceSink &sink,
                   std::vector<Memory *> memories);

    /**
     * Process a fetch/upgrade from @p requester for @p block starting
     * at @p now. @p now is the time the request leaves the
     * requester's bus; the returned completion excludes the final
     * fill bus transaction on the requesting node (charged by the
     * caller).
     */
    FetchResult fetch(Tick now, NodeId requester, Addr block,
                      ReqType type);

    /**
     * Voluntary writeback: the requester's block cache evicted a
     * dirty block. Asynchronous (the CPU does not stall); the
     * directory records the node in the prior-owner set so a later
     * re-request is classified as a refetch (Section 3.1).
     */
    void writeback(Tick now, NodeId from, Addr block);

    /**
     * Notifying flush of one block during S-COMA page replacement or
     * R-NUMA page-frame eviction: the node gives up the copy and
     * tells the home, so later requests are NOT refetches.
     */
    void flushBlock(Tick now, NodeId from, Addr block);

    /** Directory introspection for tests and stats. */
    const Directory &directory() const { return dir_; }

    /** Live directory entries. */
    std::uint64_t dirEntryCount() const { return dir_.size(); }

    /** Modeled directory storage bits. */
    std::uint64_t dirStorageBits() const
    {
        return dir_.modeledStorageBits();
    }

    /** Home of the page containing @p addr. */
    NodeId homeOf(Addr addr) const;

    /**
     * True if @p node currently holds write permission for @p block
     * (it is the registered owner).
     */
    bool nodeOwns(NodeId node, Addr block) const;

    /**
     * True if no node other than @p node holds a copy or ownership —
     * the home may then write its own memory without a directory
     * transaction.
     */
    bool onlyHolder(NodeId node, Addr block) const;

  private:
    const Params &p;
    NetworkModel &net;
    const Placement &place;
    CoherenceSink &sink;
    std::vector<Memory *> mems;
    /** Sharers, owner and prior owners of every touched block. */
    Directory dir_;
    /** Home protocol-controller occupancy, one per node. */
    std::vector<Resource> controllers;

    /** log2 of the page size (a power of two, Params::validate). */
    unsigned pageShift;

    Addr blockAlign(Addr a) const { return a & ~(Addr(p.blockSize) - 1); }

    /** Classify a request against directory state (Section 3.1). */
    MissKind classify(const DirEntry &e, NodeId requester,
                      ReqType type) const;
};

} // namespace rnuma

#endif // RNUMA_PROTO_PROTOCOL_HH
