#include "rad/scoma_rad.hh"

#include "common/logging.hh"

namespace rnuma
{

SComaRad::SComaRad(const Params &params, NodeId node, RadDeps deps)
    : Rad(params, node, deps),
      pc(params.pageCacheFrames(), params.blocksPerPage())
{
}

std::size_t
SComaRad::flushPage(Tick now, Addr victim_page)
{
    std::size_t flushed = 0;
    pc.forEachValid(victim_page,
                    [&](std::size_t idx, FineTag tag) {
        Addr block = victim_page * p.pageSize + idx * p.blockSize;
        d.l1.invalidateL1Block(block);
        d.proto.flushBlock(now, nodeId, block,
                           tag == FineTag::ReadWrite);
        d.stats.flushedBlocks++;
        flushed++;
    });
    return flushed;
}

Tick
SComaRad::ensureMapped(Tick now, Addr page)
{
    if (d.pageTable.modeOf(page) == PageMode::SComa)
        return now;

    // Page fault: select and clean a victim if no frame is free, then
    // initialize the page table, translation table, and tags.
    std::size_t flushed = 0;
    if (pc.full()) {
        Addr victim = pc.lrmVictim();
        flushed = flushPage(now, victim);
        pc.erase(victim);
        d.pageTable.unmap(victim);
        d.stats.scomaReplacements++;
    }
    Tick t = d.vm.chargeAllocation(now, flushed);
    d.stats.pageFaults++;
    d.stats.scomaAllocations++;
    pc.insert(page);
    d.pageTable.set(page, PageMode::SComa);
    return t;
}

RadAccess
SComaRad::access(Tick now, Addr addr, bool write, bool upgrade)
{
    (void)upgrade;
    Addr page = pageOf(addr);
    Addr block = blockOf(addr);
    std::size_t idx = blockIndex(addr);

    Tick t = ensureMapped(now, page);
    FineTag tag = pc.tag(page, idx);

    if (tag == FineTag::ReadWrite ||
        (tag == FineTag::ReadOnly && !write)) {
        // Fine-grain tag hit: serviced by local memory.
        Tick done = d.memory.access(t + p.sramAccess, addr);
        d.stats.pageCacheHits++;
        return {done, ServiceKind::PageCache,
                write ? CacheState::Modified : CacheState::Shared};
    }

    if (tag == FineTag::ReadOnly) {
        // Write to a read-only block: permission-only upgrade.
        FetchResult res = d.proto.fetch(t, nodeId, block,
                                        ReqType::Upgrade);
        d.stats.invalidationsSent +=
            static_cast<std::uint64_t>(res.invalidations);
        d.stats.markSharedWrite(page);
        pc.setTag(page, idx, FineTag::ReadWrite);
        pc.recordMiss(page);
        return {res.done, ServiceKind::Remote, CacheState::Modified};
    }

    // Invalid tag: the RAD inhibits memory, translates the local
    // physical address to the global one, and fetches from the home.
    FetchResult res = d.proto.fetch(t, nodeId, block,
                                    write ? ReqType::GetX : ReqType::GetS);
    pc.setTag(page, idx,
              write ? FineTag::ReadWrite : FineTag::ReadOnly);
    pc.recordMiss(page);
    d.stats.recordFetch(page, res.kind, write, true);
    d.stats.invalidationsSent +=
        static_cast<std::uint64_t>(res.invalidations);
    if (res.threeHop)
        d.stats.forwards++;

    Tick done = d.bus.acquire(res.done) + p.busLatency;
    return {done, ServiceKind::Remote,
            write ? CacheState::Modified : CacheState::Shared};
}

bool
SComaRad::invalidateBlock(Addr block)
{
    block = blockOf(block);
    Addr page = pageOf(block);
    if (!pc.contains(page))
        return false;
    std::size_t idx = blockIndex(block);
    FineTag tag = pc.tag(page, idx);
    pc.setTag(page, idx, FineTag::Invalid);
    return tag == FineTag::ReadWrite;
}

void
SComaRad::downgradeBlock(Addr block)
{
    block = blockOf(block);
    Addr page = pageOf(block);
    if (!pc.contains(page))
        return;
    std::size_t idx = blockIndex(block);
    if (pc.tag(page, idx) == FineTag::ReadWrite)
        pc.setTag(page, idx, FineTag::ReadOnly);
}

void
SComaRad::l1Writeback(Tick now, Addr block)
{
    block = blockOf(block);
    Addr page = pageOf(block);
    if (pc.contains(page)) {
        // The page cache is main memory; the dirty line lands in the
        // frame and the tag stays/becomes read-write.
        pc.setTag(page, blockIndex(block), FineTag::ReadWrite);
        return;
    }
    // The page was replaced while the L1 held the line (should have
    // been purged); fall back to a voluntary writeback home.
    d.proto.writeback(now, nodeId, block);
    d.stats.writebacks++;
}

bool
SComaRad::hasWritePermission(Addr block) const
{
    Addr page = pageOf(block);
    return pc.contains(page) &&
        pc.tag(page, blockIndex(block)) == FineTag::ReadWrite;
}

} // namespace rnuma
