/**
 * @file
 * The CC-NUMA Remote Access Device (Section 2.1, Figure 2): remote
 * pages map directly to global physical addresses; the RAD services
 * block-cache hits and sends block-cache misses to the home node.
 */

#ifndef RNUMA_RAD_CCNUMA_RAD_HH
#define RNUMA_RAD_CCNUMA_RAD_HH

#include "rad/block_cache.hh"
#include "rad/rad.hh"

namespace rnuma
{

/** CC-NUMA RAD: block cache only. */
class CcNumaRad : public Rad
{
  public:
    CcNumaRad(const Params &params, NodeId node, RadDeps deps);

    RadAccess access(Tick now, Addr addr, bool write,
                     bool upgrade) override;
    bool invalidateBlock(Addr block) override;
    void downgradeBlock(Addr block) override;
    void l1Writeback(Tick now, Addr block) override;
    bool hasWritePermission(Addr block) const override;

    /** Test introspection. */
    const BlockCache &blockCache() const { return bc; }

  private:
    BlockCache bc;

    /** Soft page fault mapping a remote page CC-NUMA on first touch. */
    Tick mapIfNeeded(Tick now, Addr page);
};

} // namespace rnuma

#endif // RNUMA_RAD_CCNUMA_RAD_HH
