#include "mem/cache.hh"

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
             std::size_t assoc_, bool infinite)
    : blockBytes(block_bytes), assoc(assoc_), unbounded(infinite)
{
    RNUMA_ASSERT(block_bytes > 0 && (block_bytes & (block_bytes - 1)) == 0,
                 "block size must be a power of two");
    while ((std::size_t{1} << blockShift) < block_bytes)
        ++blockShift;
    if (unbounded) {
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
    lines.resize(sets * assoc);
}

std::size_t
Cache::setIndex(Addr a) const
{
    const Addr block = a >> blockShift;
    if (setsArePow2)
        return static_cast<std::size_t>(block) & setMask;
    return static_cast<std::size_t>(block % sets);
}

CacheLine *
Cache::find(Addr a)
{
    a = blockAlign(a);
    if (unbounded) {
        auto it = map.find(a);
        return it == map.end() ? nullptr : &it->second;
    }
    std::size_t base = setIndex(a) * assoc;
    for (std::size_t w = 0; w < assoc; ++w) {
        CacheLine &line = lines[base + w];
        // Tag compare first: it almost always fails, and is cheaper
        // than the state load on lines that do not match.
        if (line.addr == a && line.valid())
            return &line;
    }
    return nullptr;
}

const CacheLine *
Cache::find(Addr a) const
{
    return const_cast<Cache *>(this)->find(a);
}

void
Cache::touch(CacheLine *line)
{
    line->lru = ++lruClock;
}

CacheLine *
Cache::allocate(Addr a, Victim &victim)
{
    a = blockAlign(a);
    victim = Victim{};
    if (unbounded) {
        RNUMA_ASSERT(find(a) == nullptr,
                     "allocate of already-present block ", a);
        CacheLine &line = map[a];
        line.addr = a;
        line.state = CacheState::Invalid;
        line.lru = ++lruClock;
        return &line;
    }
    // One pass over the set both picks the victim and enforces the
    // not-already-present contract (a second find() would walk the
    // same ways again).
    std::size_t base = setIndex(a) * assoc;
    CacheLine *chosen = nullptr;
    for (std::size_t w = 0; w < assoc; ++w) {
        CacheLine &line = lines[base + w];
        if (!line.valid()) {
            if (!chosen || chosen->valid())
                chosen = &line;
            continue;
        }
        RNUMA_ASSERT(line.addr != a,
                     "allocate of already-present block ", a);
        if (!chosen || (chosen->valid() && line.lru < chosen->lru))
            chosen = &line;
    }
    if (chosen->valid()) {
        victim.valid = true;
        victim.addr = chosen->addr;
        victim.state = chosen->state;
    }
    chosen->addr = a;
    chosen->state = CacheState::Invalid;
    chosen->lru = ++lruClock;
    return chosen;
}

CacheState
Cache::invalidate(Addr a)
{
    CacheLine *line = find(a);
    if (!line)
        return CacheState::Invalid;
    CacheState prior = line->state;
    if (unbounded) {
        map.erase(blockAlign(a));
        return prior;
    }
    line->state = CacheState::Invalid;
    line->addr = invalidAddr;
    return prior;
}

void
Cache::downgrade(Addr a)
{
    CacheLine *line = find(a);
    if (!line)
        return;
    if (line->state == CacheState::Modified)
        line->state = CacheState::Owned;
    else if (line->state == CacheState::Exclusive)
        line->state = CacheState::Shared;
}

void
Cache::forEachValid(
    const std::function<void(const CacheLine &)> &fn) const
{
    if (unbounded) {
        for (const auto &kv : map)
            if (kv.second.valid())
                fn(kv.second);
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
