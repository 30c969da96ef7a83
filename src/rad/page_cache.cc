#include "rad/page_cache.hh"

#include "common/logging.hh"

namespace rnuma
{

PageCache::PageCache(std::size_t frames, std::size_t blocks_per_page)
    : capacity(frames), blocksPerPage(blocks_per_page)
{
    RNUMA_ASSERT(capacity >= 1, "page cache needs at least one frame");
    RNUMA_ASSERT(blocksPerPage >= 1, "page needs at least one block");
    tags_.assign(capacity * blocksPerPage, FineTag::Invalid);
    valid_.assign(capacity, 0);
    hits_.assign(capacity, 0);
    pageOf_.assign(capacity, 0);
    prev_.assign(capacity, npos);
    next_.assign(capacity, npos);
    // Pop from the back: frames are handed out 0, 1, 2, ...
    free_.reserve(capacity);
    for (std::size_t f = capacity; f-- > 0;)
        free_.push_back(static_cast<std::uint32_t>(f));
}

std::uint32_t
PageCache::frameOf(Addr page) const
{
    const std::uint32_t f = byPage[page];
    RNUMA_ASSERT(f != npos, "page ", page, " not cached");
    return f;
}

void
PageCache::unlink(std::uint32_t f)
{
    const std::uint32_t p = prev_[f];
    const std::uint32_t n = next_[f];
    if (p == npos)
        lrmHead_ = n;
    else
        next_[p] = n;
    if (n == npos)
        lrmTail_ = p;
    else
        prev_[n] = p;
}

void
PageCache::linkTail(std::uint32_t f)
{
    prev_[f] = lrmTail_;
    next_[f] = npos;
    if (lrmTail_ == npos)
        lrmHead_ = f;
    else
        next_[lrmTail_] = f;
    lrmTail_ = f;
}

Addr
PageCache::lrmVictim() const
{
    RNUMA_ASSERT(lrmHead_ != npos,
                 "victim requested from empty page cache");
    return pageOf_[lrmHead_];
}

void
PageCache::insert(Addr page)
{
    RNUMA_ASSERT(!contains(page), "page ", page, " already cached");
    RNUMA_ASSERT(!full(), "page cache full");
    const std::uint32_t f = free_.back();
    free_.pop_back();
    FineTag *t = frameTags(f);
    for (std::size_t i = 0; i < blocksPerPage; ++i)
        t[i] = FineTag::Invalid;
    valid_[f] = 0;
    hits_[f] = 0;
    pageOf_[f] = page;
    byPage.slot(page) = f;
    linkTail(f);
}

void
PageCache::erase(Addr page)
{
    const std::uint32_t f = byPage[page];
    RNUMA_ASSERT(f != npos, "erasing uncached page ", page);
    unlink(f);
    byPage.reset(page);
    free_.push_back(f);
}

void
PageCache::recordMiss(Addr page)
{
    const std::uint32_t f = frameOf(page);
    if (lrmTail_ == f)
        return; // already most recently missed
    unlink(f);
    linkTail(f);
}

void
PageCache::recordHit(Addr page)
{
    hits_[frameOf(page)]++;
}

std::uint64_t
PageCache::hitsOf(Addr page) const
{
    return hits_[frameOf(page)];
}

FineTag
PageCache::tag(Addr page, std::size_t idx) const
{
    RNUMA_ASSERT(idx < blocksPerPage, "bad block index ", idx);
    return frameTags(frameOf(page))[idx];
}

void
PageCache::setTag(Addr page, std::size_t idx, FineTag t)
{
    RNUMA_ASSERT(idx < blocksPerPage, "bad block index ", idx);
    const std::uint32_t f = frameOf(page);
    FineTag &slot = frameTags(f)[idx];
    valid_[f] += (t != FineTag::Invalid) - (slot != FineTag::Invalid);
    slot = t;
}

std::size_t
PageCache::validBlocks(Addr page) const
{
    return valid_[frameOf(page)];
}

} // namespace rnuma
