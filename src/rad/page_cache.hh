/**
 * @file
 * The S-COMA page cache (Section 2.2): a region of main memory set
 * aside to cache remote pages at page granularity, with two-bit
 * fine-grain access-control tags per block, an auxiliary translation
 * table (modeled as a page-indexed page->frame table), and the paper's
 * Least-Recently-Missed replacement policy — the frame list is
 * reordered on remote misses rather than on every reference
 * (Section 4).
 */

#ifndef RNUMA_RAD_PAGE_CACHE_HH
#define RNUMA_RAD_PAGE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/page_indexed.hh"
#include "common/types.hh"

namespace rnuma
{

/** Two-bit fine-grain access-control tag for one block. */
enum class FineTag : std::uint8_t
{
    Invalid,   ///< block absent; the RAD must inhibit memory and fetch
    ReadOnly,  ///< local copy valid for reads
    ReadWrite  ///< local copy valid for reads and writes (dirty)
};

/** One node's page cache. */
class PageCache
{
  public:
    /**
     * @param frames          page frames available (320 KB / 4 KB = 80
     *                        in the base system)
     * @param blocks_per_page fine-grain tags per frame
     */
    PageCache(std::size_t frames, std::size_t blocks_per_page);

    /** Is the page currently cached (translation-table hit)? */
    bool contains(Addr page) const { return byPage[page] != npos; }

    /** All frames in use? */
    bool full() const { return used() == capacity; }

    /** Frames in use. */
    std::size_t used() const { return capacity - free_.size(); }

    /** Total frames. */
    std::size_t frames() const { return capacity; }

    /**
     * The replacement victim: the least-recently-missed page.
     * Only valid when at least one page is cached.
     */
    Addr lrmVictim() const;

    /** Insert a page (must not be present; must not be full). */
    void insert(Addr page);

    /** Remove a page and clear its tags. */
    void erase(Addr page);

    /**
     * Record a remote miss on a cached page, moving it to the
     * most-recently-missed end of the LRM list.
     */
    void recordMiss(Addr page);

    /**
     * Record one locally-satisfied access on a cached page — the
     * residency-utility signal. Pure bookkeeping: the LRM order and
     * all timing are untouched.
     */
    void recordHit(Addr page);

    /** Hits recorded against @p page since it was inserted. */
    std::uint64_t hitsOf(Addr page) const;

    /** Fine-grain tag of block @p idx of @p page. */
    FineTag tag(Addr page, std::size_t idx) const;

    /** Set a fine-grain tag. */
    void setTag(Addr page, std::size_t idx, FineTag t);

    /** Number of valid (non-Invalid) tags on a page. */
    std::size_t validBlocks(Addr page) const;

    /**
     * Visit valid blocks of a page as (index, tag). A template
     * visitor, like SharerSet::forEach: it runs on every page-cache
     * replacement, so the call must inline.
     */
    template <class F>
    void
    forEachValid(Addr page, F &&fn) const
    {
        const FineTag *t = frameTags(frameOf(page));
        for (std::size_t i = 0; i < blocksPerPage; ++i)
            if (t[i] != FineTag::Invalid)
                fn(i, t[i]);
    }

  private:
    /**
     * Struct-of-arrays frame storage, indexed by frame slot. The tag
     * arena is one flat allocation (capacity * blocksPerPage), the
     * LRM list is intrusive (index links instead of std::list
     * nodes), and per-frame valid-tag counts are maintained
     * incrementally so validBlocks() — which page-operation costs
     * consult on every allocation, replacement, and relocation — is
     * O(1) instead of a scan. The translation table byPage maps a
     * page number to its frame slot (npos = not cached).
     */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    std::size_t capacity;
    std::size_t blocksPerPage;
    std::vector<FineTag> tags_;        ///< capacity * blocksPerPage
    std::vector<std::uint32_t> valid_; ///< valid tags per frame
    std::vector<std::uint64_t> hits_;  ///< hits since insert, per frame
    std::vector<Addr> pageOf_;         ///< page cached in each frame
    std::vector<std::uint32_t> prev_;  ///< LRM links (npos = end)
    std::vector<std::uint32_t> next_;
    std::uint32_t lrmHead_ = npos; ///< least recently missed
    std::uint32_t lrmTail_ = npos; ///< most recently missed
    std::vector<std::uint32_t> free_; ///< unused frame slots
    PageIndexed<std::uint32_t> byPage{npos};

    std::uint32_t frameOf(Addr page) const;
    void unlink(std::uint32_t f);
    void linkTail(std::uint32_t f);
    FineTag *frameTags(std::uint32_t f) { return &tags_[f * blocksPerPage]; }
    const FineTag *frameTags(std::uint32_t f) const
    {
        return &tags_[f * blocksPerPage];
    }
};

} // namespace rnuma

#endif // RNUMA_RAD_PAGE_CACHE_HH
