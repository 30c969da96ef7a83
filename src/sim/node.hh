/**
 * @file
 * One SMP node (Figure 1): four processors with private L1 data
 * caches kept coherent by a snoopy MOSI protocol over a
 * split-transaction bus, an interleaved memory, and a Remote Access
 * Device. The node routes each L1 miss: on-node cache-to-cache
 * transfer (owned lines only, per the MBus limitation in Section 4),
 * home-memory access for local pages, or the RAD for remote pages.
 * The L1s are the banks of one Cache, one bank per CPU, so a snoop of
 * all four reads one set's lines side by side.
 */

#ifndef RNUMA_SIM_NODE_HH
#define RNUMA_SIM_NODE_HH

#include <memory>

#include "common/params.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "os/page_table.hh"
#include "proto/protocol.hh"
#include "proto/registry.hh"
#include "rad/rad.hh"

namespace rnuma
{

/** One SMP node of the DSM machine. */
class Node : public L1Snooper
{
  public:
    /**
     * @param params   system parameters
     * @param id       this node's id
     * @param spec     which system to build (its RAD factory runs in
     *                 this constructor; the spec is not retained)
     * @param memory   this node's DRAM (owned by the Machine so the
     *                 GlobalProtocol can also reach it)
     * @param proto    the machine-wide protocol engine
     * @param stats    the run's statistics sink
     */
    Node(const Params &params, NodeId id, const ProtocolSpec &spec,
         Memory &memory, GlobalProtocol &proto, RunStats &stats);

    /**
     * Process one L1 miss or write upgrade from local processor @p
     * cpu: a reference that tryHit() turned down.
     * @param now     issue tick
     * @param cpu     local CPU index (0..cpusPerNode-1)
     * @param addr    global address
     * @param write   store
     * @param is_home this node is the referenced page's home
     * @return completion tick
     */
    Tick access(Tick now, std::size_t cpu, Addr addr, bool write,
                bool is_home);

    /**
     * Fast path: service the reference if it hits the local L1 with
     * sufficient permission (zero extra latency, no shared state
     * touched). Returns false otherwise, with no side effects.
     */
    bool
    tryHit(std::size_t cpu, Addr addr, bool write)
    {
        CacheLine *line = l1s_.find(addr, cpu);
        if (!line || (write && line->state != CacheState::Modified))
            return false;
        stats.l1Hits++;
        return true;
    }

    //--- L1Snooper --------------------------------------------------------
    CacheState invalidateL1Block(Addr block) override;

    //--- Directory downcalls (via Machine's CoherenceSink) ---------------
    /** Invalidate every copy on this node; true if any was dirty. */
    bool invalidateAll(Addr block);

    /** Downgrade every copy on this node to clean/shared. */
    void downgradeAll(Addr block);

    //--- Introspection ------------------------------------------------------
    Rad &rad() { return *rad_; }
    const Rad &rad() const { return *rad_; }
    Resource &bus() { return bus_; }
    PageTable &pageTable() { return pageTable_; }
    /** The node's L1s: bank i is local CPU i's cache. */
    Cache &l1s() { return l1s_; }
    NodeId id() const { return id_; }

  private:
    const Params &p;
    NodeId id_;
    GlobalProtocol &proto;
    RunStats &stats;
    Memory &mem;
    /** The node's split-transaction memory bus. */
    Resource bus_;
    Cache l1s_;
    PageTable pageTable_;
    std::unique_ptr<Rad> rad_;
    /** log2 of the page size (a power of two, Params::validate). */
    unsigned pageShift;

    Addr blockOf(Addr a) const { return a & ~(Addr(p.blockSize) - 1); }

    /** Fill an L1 after a miss, handling the victim writeback. */
    void fillL1(Tick now, std::size_t cpu, Addr block, CacheState st);

    /** Invalidate the block in every L1 except @p cpu's. */
    void invalidateOtherL1s(std::size_t cpu, Addr block);

    /** Find an owned (M/O) copy in another L1 (MBus supplies those). */
    CacheLine *snoopOwned(std::size_t cpu, Addr block);

    /** Does this node hold global write permission for the block? */
    bool nodeHasWritePermission(Addr block, bool is_home) const;
};

} // namespace rnuma

#endif // RNUMA_SIM_NODE_HH
