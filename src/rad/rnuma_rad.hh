/**
 * @file
 * The Remote Access Device of Section 3 (Figure 4): the union of the
 * CC-NUMA block cache and the S-COMA page cache with fine-grain
 * tags, plus an optional pluggable RelocationPolicy. It serves all
 * three systems. CC-NUMA maps pages CC-NUMA on first touch and has
 * no policy, so pages never leave the block cache. S-COMA faults
 * every remote page into the page cache on first touch. R-NUMA maps
 * pages CC-NUMA and relocates a page into the page cache when the
 * policy fires on its refetch stream; pages evicted from the page
 * cache revert to CC-NUMA on their next touch (the policy is told,
 * so stateful policies can react). With the paper's
 * StaticThresholdPolicy this is exactly R-NUMA; other policies give
 * new hybrid systems on the same hardware.
 */

#ifndef RNUMA_RAD_RNUMA_RAD_HH
#define RNUMA_RAD_RNUMA_RAD_HH

#include <memory>

#include "core/relocation_policy.hh"
#include "mem/cache.hh"
#include "rad/page_cache.hh"
#include "rad/rad.hh"

namespace rnuma
{

/** Block cache + page cache + an optional relocation policy. */
class RNumaRad : public Rad
{
  public:
    /**
     * @param firstTouch mode an unmapped page takes on first touch:
     *        CCNuma (block cache) or SComa (page cache)
     * @param infiniteBlockCache the Figure 6 normalization baseline:
     *        an unbounded block cache that ignores blockCacheBytes
     * @param policy relocation decision rule; null never relocates
     */
    RNumaRad(const Params &params, NodeId node, RadDeps deps,
             PageMode firstTouch, std::size_t blockCacheBytes,
             bool infiniteBlockCache, std::size_t pageFrames,
             std::unique_ptr<RelocationPolicy> policy);

    RadAccess access(Tick now, Addr addr, bool write,
                     bool upgrade) override;
    bool invalidateBlock(Addr block) override;
    void downgradeBlock(Addr block) override;
    void l1Writeback(Tick now, Addr block) override;
    bool hasWritePermission(Addr block) const override;

    /** The node's page cache (read-only, for invariant checks). */
    const PageCache &pageCache() const { return pc; }

    /**
     * The node's block cache (read-only, for invariant checks). Its
     * lines are Shared (a read-only copy) or Modified (read-write:
     * the node is the block's global owner).
     */
    const Cache &blockCache() const { return bc; }

  private:
    PageMode firstTouch_;
    /**
     * The CC-NUMA block cache: remote blocks only, write-back
     * (Section 2.1). Inclusion with the processor caches holds for
     * read-write blocks but not read-only ones (Section 4).
     */
    Cache bc;
    PageCache pc;
    std::unique_ptr<RelocationPolicy> policy_;

    /** CC-NUMA-mode path through the block cache. */
    RadAccess blockPath(Tick now, Addr addr, bool write);

    /** S-COMA-mode path through the page cache. */
    RadAccess pagePath(Tick now, Addr addr, bool write);

    /** Permission-only upgrade at the home; returns its done tick. */
    Tick upgradeRemote(Tick now, Addr block, Addr page);

    /**
     * Fetch a missing block from its home and record the traffic;
     * the result's done tick is when the fill is on the node bus.
     */
    FetchResult fetchRemote(Tick now, Addr block, Addr page,
                            bool write);

    /**
     * S-COMA page fault (Figure 3b): evict the LRM page if no frame
     * is free, then allocate and map. Returns the resume tick.
     */
    Tick allocatePage(Tick now, Addr page);

    /**
     * Relocate a page from CC-NUMA to S-COMA (Section 3.1): trap,
     * flush the page's blocks from the L1s and block cache into a
     * freshly allocated frame (replacing the LRM victim if needed),
     * remap, and reset the counter. Returns the resume tick.
     */
    Tick relocate(Tick now, Addr page);

    /**
     * Replace the least-recently-missed page: flush its blocks home
     * (notifying), free the frame, unmap the page. Returns the
     * number of blocks flushed (feeds the page-operation cost).
     */
    std::size_t evictLrm(Tick now);

    /**
     * Charge an OS intervention's fixed Table 2 cost to the run's OS
     * cycles; returns the resume tick.
     */
    Tick chargeOs(Tick now, Tick cost);
};

} // namespace rnuma

#endif // RNUMA_RAD_RNUMA_RAD_HH
