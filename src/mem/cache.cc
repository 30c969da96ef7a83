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
             bool infinite, std::size_t banks_)
    : blockBytes(block_bytes), nbanks(banks_), unbounded(infinite)
{
    RNUMA_ASSERT(isPow2(block_bytes), "block size ", block_bytes,
                 " must be a power of two");
    RNUMA_ASSERT(nbanks >= 1, "a cache needs at least one bank");
    RNUMA_ASSERT(!unbounded || nbanks == 1,
                 "an infinite cache has one bank");
    RNUMA_ASSERT(size_bytes >= block_bytes && isPow2(size_bytes),
                 infinite ? "an infinite cache's page size " : "cache size ",
                 size_bytes, " must be a power-of-two multiple of the block");
    blockShift = ceilLog2(block_bytes);
    if (unbounded) {
        chunkShift = ceilLog2(size_bytes / block_bytes);
        return;
    }
    const std::size_t sets = size_bytes / block_bytes;
    setMask = sets - 1;
    lines.resize(sets * nbanks);
}

CacheLine *
Cache::allocate(Addr a, Victim &victim, std::size_t bank)
{
    a = blockAlign(a);
    RNUMA_ASSERT(a < CacheLine::noBlock, "block ", a,
                 " does not fit a cache line's tag");
    victim = Victim{};
    CacheLine *line;
    if (unbounded) {
        const Addr block = a >> blockShift;
        std::unique_ptr<CacheLine[]> &chunk =
            chunks.slot(block >> chunkShift);
        if (!chunk)
            chunk.reset(new CacheLine[std::size_t{1} << chunkShift]);
        line = &chunk[block & ((1u << chunkShift) - 1)];
    } else {
        RNUMA_ASSERT(bank < nbanks, "bank ", bank, " out of range");
        line = &lines[setIndex(a) * nbanks + bank];
    }
    if (line->valid()) {
        RNUMA_ASSERT(line->addr != a,
                     "allocate of already-present block ", a);
        victim.valid = true;
        victim.addr = line->addr;
        victim.state = line->state;
    }
    line->addr = a;
    line->state = CacheState::Invalid;
    return line;
}

} // namespace rnuma
