#include "mem/cache.hh"

#include "common/geometry.hh"
#include "common/logging.hh"

namespace rnuma
{

bool
isDirty(CacheState s)
{
    return s == CacheState::Owned || s == CacheState::Modified;
}

bool
isValid(CacheState s)
{
    return s != CacheState::Invalid;
}

Cache::Cache(std::size_t size_bytes, std::size_t block_bytes,
             std::size_t assoc_, bool infinite, std::size_t banks_)
    : blockBytes(block_bytes), assoc(assoc_), nbanks(banks_),
      unbounded(infinite)
{
    RNUMA_ASSERT(block_bytes > 0 && (block_bytes & (block_bytes - 1)) == 0,
                 "block size must be a power of two");
    RNUMA_ASSERT(nbanks >= 1, "a cache needs at least one bank");
    blockShift = ceilLog2(block_bytes);
    if (unbounded) {
        RNUMA_ASSERT(nbanks == 1, "an infinite cache has one bank");
        RNUMA_ASSERT(size_bytes >= block_bytes &&
                         (size_bytes & (size_bytes - 1)) == 0,
                     "an infinite cache's page size ", size_bytes,
                     " must be a power-of-two multiple of the block");
        chunkShift = ceilLog2(size_bytes / block_bytes);
        sets = 1;
        return;
    }
    RNUMA_ASSERT(assoc >= 1, "associativity must be >= 1");
    RNUMA_ASSERT(size_bytes % (block_bytes * assoc) == 0,
                 "cache size ", size_bytes,
                 " not divisible by block*assoc");
    sets = size_bytes / (block_bytes * assoc);
    RNUMA_ASSERT(sets >= 1, "cache must have at least one set");
    setsArePow2 = (sets & (sets - 1)) == 0;
    setMask = sets - 1;
    lines.resize(sets * nbanks * assoc);
    if (assoc > 1)
        lru.resize(lines.size());
}

CacheLine *
Cache::allocate(Addr a, Victim &victim, std::size_t bank)
{
    a = blockAlign(a);
    RNUMA_ASSERT(a < CacheLine::noBlock, "block ", a,
                 " does not fit a cache line's tag");
    victim = Victim{};
    if (unbounded) {
        const Addr block = a >> blockShift;
        std::unique_ptr<CacheLine[]> &chunk =
            chunks.slot(block >> chunkShift);
        if (!chunk)
            chunk.reset(new CacheLine[std::size_t{1} << chunkShift]);
        CacheLine &line = chunk[block & ((1u << chunkShift) - 1)];
        RNUMA_ASSERT(!line.valid(),
                     "allocate of already-present block ", a);
        line.addr = a;
        line.state = CacheState::Invalid;
        return &line;
    }
    RNUMA_ASSERT(bank < nbanks, "bank ", bank, " out of range");
    // One pass over the set both picks the victim and enforces the
    // not-already-present contract (a second find() would walk the
    // same ways again). The first way is taken without an LRU
    // compare, so direct-mapped caches never read the (absent) stamps.
    const std::size_t base = (setIndex(a) * nbanks + bank) * assoc;
    std::size_t chosen = base;
    for (std::size_t i = base; i < base + assoc; ++i) {
        const CacheLine &line = lines[i];
        if (!line.valid()) {
            if (i == base || lines[chosen].valid())
                chosen = i;
            continue;
        }
        RNUMA_ASSERT(line.addr != a,
                     "allocate of already-present block ", a);
        if (i != base && lines[chosen].valid() && lru[i] < lru[chosen])
            chosen = i;
    }
    CacheLine &line = lines[chosen];
    if (line.valid()) {
        victim.valid = true;
        victim.addr = line.addr;
        victim.state = line.state;
    }
    line.addr = a;
    line.state = CacheState::Invalid;
    touch(&line);
    return &line;
}

void
Cache::forEachValid(
    const std::function<void(const CacheLine &)> &fn) const
{
    if (unbounded) {
        for (const auto &chunk : chunks)
            for (std::size_t i = 0; chunk && i < (1u << chunkShift); ++i)
                if (chunk[i].valid())
                    fn(chunk[i]);
        return;
    }
    for (const auto &line : lines)
        if (line.valid())
            fn(line);
}

std::size_t
Cache::validCount() const
{
    std::size_t n = 0;
    forEachValid([&](const CacheLine &) { ++n; });
    return n;
}

} // namespace rnuma
