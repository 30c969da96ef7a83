/**
 * @file
 * The hybrid Remote Access Device (Section 3, Figure 4): the union
 * of the CC-NUMA and S-COMA RADs, parameterized by a pluggable
 * RelocationPolicy. Remote pages start CC-NUMA; when the policy
 * fires on a page's refetch stream, the RAD interrupts the OS, which
 * relocates the page into the S-COMA page cache. Pages evicted from
 * the page cache revert to CC-NUMA on their next touch (the policy
 * is told, so stateful policies can react). With the paper's
 * StaticThresholdPolicy this is exactly R-NUMA; other policies give
 * new hybrid systems on the same hardware.
 */

#ifndef RNUMA_RAD_RNUMA_RAD_HH
#define RNUMA_RAD_RNUMA_RAD_HH

#include <memory>

#include "core/relocation_policy.hh"
#include "rad/block_cache.hh"
#include "rad/page_cache.hh"
#include "rad/rad.hh"

namespace rnuma
{

/** Hybrid RAD: block cache + page cache + a relocation policy. */
class RNumaRad : public Rad
{
  public:
    /**
     * @param policy the relocation decision rule; null selects the
     *        paper's StaticThresholdPolicy(params.relocationThreshold)
     */
    RNumaRad(const Params &params, NodeId node, RadDeps deps,
             std::unique_ptr<RelocationPolicy> policy = nullptr);

    RadAccess access(Tick now, Addr addr, bool write,
                     bool upgrade) override;
    bool invalidateBlock(Addr block) override;
    void downgradeBlock(Addr block) override;
    void l1Writeback(Tick now, Addr block) override;
    bool hasWritePermission(Addr block) const override;

    /** Test introspection. */
    const BlockCache &blockCache() const { return bc; }
    const PageCache &pageCache() const { return pc; }
    const RelocationPolicy &policy() const { return *policy_; }

  private:
    BlockCache bc;
    PageCache pc;
    std::unique_ptr<RelocationPolicy> policy_;

    /** CC-NUMA-mode path through the block cache. */
    RadAccess blockPath(Tick now, Addr addr, bool write);

    /** S-COMA-mode path through the page cache. */
    RadAccess pagePath(Tick now, Addr addr, bool write);

    /**
     * Relocate a page from CC-NUMA to S-COMA (Section 3.1): trap,
     * flush the page's blocks from the L1s and block cache into a
     * freshly allocated frame (replacing the LRM victim if needed),
     * remap, and reset the counter. Returns the resume tick.
     */
    Tick relocate(Tick now, Addr page);

    /** Flush a victim page's blocks home (notifying). */
    std::size_t flushPage(Tick now, Addr victim_page);
};

} // namespace rnuma

#endif // RNUMA_RAD_RNUMA_RAD_HH
