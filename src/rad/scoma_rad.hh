/**
 * @file
 * The S-COMA Remote Access Device (Section 2.2, Figure 3): remote
 * pages are cached whole in a main-memory page cache; two-bit
 * fine-grain tags detect block misses; the OS allocates and replaces
 * page frames with the Least-Recently-Missed policy.
 */

#ifndef RNUMA_RAD_SCOMA_RAD_HH
#define RNUMA_RAD_SCOMA_RAD_HH

#include "rad/page_cache.hh"
#include "rad/rad.hh"

namespace rnuma
{

/** S-COMA RAD: page cache + fine-grain tags, no block cache. */
class SComaRad : public Rad
{
  public:
    SComaRad(const Params &params, NodeId node, RadDeps deps);

    RadAccess access(Tick now, Addr addr, bool write,
                     bool upgrade) override;
    bool invalidateBlock(Addr block) override;
    void downgradeBlock(Addr block) override;
    void l1Writeback(Tick now, Addr block) override;
    bool hasWritePermission(Addr block) const override;

    /** Test introspection. */
    const PageCache &pageCache() const { return pc; }

  private:
    PageCache pc;

    /**
     * Fault the page into the page cache, replacing the LRM victim if
     * no frame is free (Figure 3b). Returns the resume tick.
     */
    Tick ensureMapped(Tick now, Addr page);

    /**
     * Flush a victim page: invalidate L1 copies, notify the home for
     * every valid block, clear tags. Returns the number of blocks
     * flushed (feeds the page-operation cost).
     */
    std::size_t flushPage(Tick now, Addr victim_page);
};

} // namespace rnuma

#endif // RNUMA_RAD_SCOMA_RAD_HH
