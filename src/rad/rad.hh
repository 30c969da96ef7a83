/**
 * @file
 * The Remote Access Device (RAD) abstraction. Every node has a RAD
 * that snoops the memory bus and services references to remote pages
 * (Figure 1). The three systems differ only in their RAD: CC-NUMA
 * uses a block cache, S-COMA a page cache with fine-grain tags, and
 * R-NUMA both plus the reactive per-page refetch counters. Since
 * R-NUMA's device is the union of the other two, RNumaRad
 * (rad/rnuma_rad.hh) implements all three.
 */

#ifndef RNUMA_RAD_RAD_HH
#define RNUMA_RAD_RAD_HH

#include <cstdint>

#include "common/geometry.hh"
#include "common/params.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "os/page_table.hh"
#include "proto/protocol.hh"

namespace rnuma
{

/**
 * Upcall interface allowing the RAD (and the OS page machinery) to
 * snoop and invalidate the node's processor caches — e.g., to enforce
 * inclusion for read-write blocks, and to purge a page's blocks on
 * replacement or relocation. Implemented by sim::Node.
 */
class L1Snooper
{
  public:
    virtual ~L1Snooper() = default;

    /**
     * Invalidate every on-node L1 copy of @p block.
     * @return the strongest prior state across the node's L1s
     *         (Modified > Owned > Shared > Invalid).
     */
    virtual CacheState invalidateL1Block(Addr block) = 0;
};

/** Everything a RAD needs from its node and the global machine. */
struct RadDeps
{
    GlobalProtocol &proto;
    RunStats &stats;
    Resource &bus;   ///< the node's memory bus (fill transactions)
    Memory &memory;  ///< the node's DRAM (page-cache data lives here)
    PageTable &pageTable;
    L1Snooper &l1;
};

/** Which structure serviced a remote reference. */
enum class ServiceKind : std::uint8_t
{
    BlockCache, ///< CC-NUMA block cache hit
    PageCache,  ///< S-COMA fine-grain tag hit (local memory)
    Remote      ///< fetched from the home node
};

/** Result of a RAD access. */
struct RadAccess
{
    /** Completion tick (data on the node bus, ready for L1 fill). */
    Tick done = 0;
    ServiceKind service = ServiceKind::Remote;
    /** State the requesting L1 should fill with. */
    CacheState fillState = CacheState::Shared;
};

/** Abstract RAD. */
class Rad
{
  public:
    Rad(const Params &params, NodeId node, RadDeps deps)
        : p(params), nodeId(node), d(deps),
          pageShift(ceilLog2(params.pageSize)),
          blockShift(ceilLog2(params.blockSize))
    {}

    virtual ~Rad() = default;

    /**
     * Service a reference to a remote page. Called by the node after
     * L1 miss, bus arbitration, and the on-node snoop; @p now already
     * includes the request bus latency.
     *
     * @param now     time the request appears on the bus
     * @param addr    global physical address
     * @param write   store (needs write permission)
     * @param upgrade the requesting L1 holds a valid read-only copy
     *                (permission-only request)
     */
    virtual RadAccess access(Tick now, Addr addr, bool write,
                             bool upgrade) = 0;

    /**
     * Directory-initiated invalidation of this node's copy.
     * @return true if the RAD held the block dirty.
     */
    virtual bool invalidateBlock(Addr block) = 0;

    /** Directory-initiated downgrade to read-only/clean. */
    virtual void downgradeBlock(Addr block) = 0;

    /** An L1 evicted a dirty remote block; absorb it. */
    virtual void l1Writeback(Tick now, Addr block) = 0;

    /** Node-level write permission for a remote block. */
    virtual bool hasWritePermission(Addr block) const = 0;

    NodeId node() const { return nodeId; }

  protected:
    const Params &p;
    NodeId nodeId;
    RadDeps d;

    /** Page and block sizes are powers of two (Params::validate). */
    unsigned pageShift;
    unsigned blockShift;

    Addr blockOf(Addr a) const { return a & ~(Addr(p.blockSize) - 1); }
    Addr pageOf(Addr a) const { return a >> pageShift; }
    std::size_t
    blockIndex(Addr a) const
    {
        return static_cast<std::size_t>(
            (a & (Addr(p.pageSize) - 1)) >> blockShift);
    }
};

} // namespace rnuma

#endif // RNUMA_RAD_RAD_HH
