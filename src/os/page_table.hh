/**
 * @file
 * Per-node page tables. The machine runs a single OS image but keeps
 * separate page tables per node (Section 2), so each node can
 * independently decide how a given remote page is mapped: directly to
 * the CC-NUMA global physical address, or to a local S-COMA page
 * cache frame.
 */

#ifndef RNUMA_OS_PAGE_TABLE_HH
#define RNUMA_OS_PAGE_TABLE_HH

#include <algorithm>
#include <cstdint>

#include "common/page_indexed.hh"
#include "common/types.hh"

namespace rnuma
{

/** How one node maps one page. */
enum class PageMode : std::uint8_t
{
    Unmapped, ///< never touched on this node (soft fault on access)
    Local,    ///< the node is the page's home
    CCNuma,   ///< mapped straight to the remote global address
    SComa     ///< mapped to a local page-cache frame
};

/** One node's page table, indexed by page number. */
class PageTable
{
  public:
    /** Mapping mode of a page (Unmapped when never set). */
    PageMode modeOf(Addr page) const { return modes[page]; }

    /** Install or change a mapping. */
    void set(Addr page, PageMode mode) { modes.slot(page) = mode; }

    /** Remove a mapping (page replacement / relocation unmap). */
    void unmap(Addr page) { modes.reset(page); }

    /** Number of mapped pages. */
    std::size_t
    size() const
    {
        return modes.size() -
            std::count(modes.begin(), modes.end(), PageMode::Unmapped);
    }

    /**
     * Count of pages in a given mode. Unmapped counts 0: the table's
     * gap slots are not pages.
     */
    std::size_t
    countMode(PageMode mode) const
    {
        return mode == PageMode::Unmapped
            ? 0 : std::count(modes.begin(), modes.end(), mode);
    }

  private:
    PageIndexed<PageMode> modes{PageMode::Unmapped};
};

} // namespace rnuma

#endif // RNUMA_OS_PAGE_TABLE_HH
