#include "rad/rnuma_rad.hh"

#include "common/logging.hh"

namespace rnuma
{

RNumaRad::RNumaRad(const Params &params, NodeId node, RadDeps deps,
                   PageMode firstTouch, std::size_t blockCacheBytes,
                   bool infiniteBlockCache, std::size_t pageFrames,
                   std::unique_ptr<RelocationPolicy> policy)
    : Rad(params, node, deps), firstTouch_(firstTouch),
      bc(infiniteBlockCache ? params.pageSize : blockCacheBytes,
         params.blockSize, infiniteBlockCache),
      pc(pageFrames, params.blocksPerPage()),
      policy_(std::move(policy))
{
    RNUMA_ASSERT(firstTouch_ == PageMode::CCNuma ||
                     firstTouch_ == PageMode::SComa,
                 "first touch must map a page CC-NUMA or S-COMA");
}

std::size_t
RNumaRad::evictLrm(Tick now)
{
    Addr victim = pc.lrmVictim();
    std::size_t flushed = 0;
    pc.forEachValid(victim, [&](std::size_t idx, FineTag) {
        Addr block = victim * p.pageSize + idx * p.blockSize;
        d.l1.invalidateL1Block(block);
        d.proto.flushBlock(now, nodeId, block);
        d.stats.flushedBlocks++;
        flushed++;
    });
    // Read the residency's hit count before the frame is recycled: it
    // is the utility signal the policy learns from and the
    // wasted-relocation observability counters record.
    std::uint64_t hits = pc.hitsOf(victim);
    pc.erase(victim);
    d.pageTable.unmap(victim); // the next touch is a first touch again
    d.stats.scomaReplacements++;
    if (policy_) {
        policy_->onEvicted(victim, hits);
        d.stats.evictedPageHits += hits;
        if (hits == 0)
            d.stats.evictionsZeroHit++;
    }
    return flushed;
}

Tick
RNumaRad::chargeOs(Tick now, Tick cost)
{
    d.stats.osCycles += cost;
    return now + cost;
}

Tick
RNumaRad::allocatePage(Tick now, Addr page)
{
    std::size_t flushed = pc.full() ? evictLrm(now) : 0;
    Tick t = chargeOs(now, p.pageOpCost(flushed));
    d.stats.pageFaults++;
    d.stats.scomaAllocations++;
    pc.insert(page);
    d.pageTable.set(page, PageMode::SComa);
    return t;
}

Tick
RNumaRad::relocate(Tick now, Addr page)
{
    d.stats.relocations++;

    Tick t = now;
    if (pc.full())
        t = chargeOs(t, p.pageOpCost(evictLrm(t)));
    pc.insert(page);

    // Move the locally referenced blocks: unmap the CC-NUMA page,
    // flush its blocks from the L1s and block cache into the new
    // frame, preserving read-only/read-write permission. Only the
    // blocks actually held locally are replicated (Section 5.1); the
    // directory state does not change, since the node keeps its
    // copies.
    std::size_t moved = 0;
    for (std::size_t idx = 0; idx < p.blocksPerPage(); ++idx) {
        Addr block = page * p.pageSize + idx * p.blockSize;
        CacheState l1 = d.l1.invalidateL1Block(block);
        CacheState bcs = bc.invalidate(block);
        bool dirty = isDirty(l1) || bcs == CacheState::Modified;
        bool valid = isValid(l1) || isValid(bcs);
        if (valid) {
            pc.setTag(page, idx,
                      dirty ? FineTag::ReadWrite : FineTag::ReadOnly);
            moved++;
        }
    }
    // Relocation uses the allocation mechanism and costs the same
    // (Section 4), per moved block.
    t = chargeOs(t, p.pageOpCost(moved));
    d.pageTable.set(page, PageMode::SComa);
    policy_->onRelocated(page);
    return t;
}

Tick
RNumaRad::upgradeRemote(Tick now, Addr block, Addr page)
{
    FetchResult res = d.proto.fetch(now, nodeId, block, ReqType::Upgrade);
    d.stats.invalidationsSent +=
        static_cast<std::uint64_t>(res.invalidations);
    d.stats.markSharedWrite(page);
    return res.done;
}

FetchResult
RNumaRad::fetchRemote(Tick now, Addr block, Addr page, bool write)
{
    FetchResult res = d.proto.fetch(now, nodeId, block,
                                    write ? ReqType::GetX : ReqType::GetS);
    d.stats.recordFetch(page, res.kind, write);
    d.stats.invalidationsSent +=
        static_cast<std::uint64_t>(res.invalidations);
    if (res.threeHop)
        d.stats.forwards++;
    res.done = d.bus.acquire(res.done) + p.busLatency;
    return res;
}

RadAccess
RNumaRad::blockPath(Tick now, Addr addr, bool write)
{
    Addr page = pageOf(addr);
    Addr block = blockOf(addr);
    CacheState fill = write ? CacheState::Modified : CacheState::Shared;

    CacheLine *line = bc.find(block);
    if (line && line->valid()) {
        if (!write || line->state == CacheState::Modified) {
            // Block cache hit: SRAM access plus the bus transfer.
            d.stats.blockCacheHits++;
            return {now + p.sramAccess + p.busLatency,
                    ServiceKind::BlockCache, fill};
        }
        // Write to a read-only block: permission-only upgrade.
        Tick done = upgradeRemote(now, block, page);
        line->state = CacheState::Modified;
        return {done, ServiceKind::Remote, CacheState::Modified};
    }

    // Block cache miss: allocate a frame, writing back a dirty victim
    // (Figure 2b). Inclusion holds for read-write blocks: purge L1
    // copies and voluntarily write the block back home, which records
    // this node in the directory's prior-owner set. Read-only victims
    // are dropped silently (non-notifying), so the directory keeps
    // this node in the sharer set — the basis of read refetch
    // detection.
    Cache::Victim victim;
    CacheLine *nl = bc.allocate(block, victim);
    if (victim.valid && victim.state == CacheState::Modified) {
        d.l1.invalidateL1Block(victim.addr);
        d.proto.writeback(now, nodeId, victim.addr);
        d.stats.writebacks++;
    }

    FetchResult res = fetchRemote(now, block, page, write);
    nl->state = fill;

    // The reactive mechanism: report capacity/conflict refetches to
    // the relocation policy; when it fires, the RAD interrupts and
    // the OS relocates the page into the page cache (Figure 4b).
    Tick done = res.done;
    if (policy_ && res.kind == MissKind::Refetch &&
        policy_->onRefetch(page)) {
        done = relocate(done, page);
    }
    return {done, ServiceKind::Remote, fill};
}

RadAccess
RNumaRad::pagePath(Tick now, Addr addr, bool write)
{
    Addr page = pageOf(addr);
    Addr block = blockOf(addr);
    std::size_t idx = blockIndex(addr);
    FineTag tag = pc.tag(page, idx);
    CacheState fill = write ? CacheState::Modified : CacheState::Shared;

    if (tag == FineTag::ReadWrite ||
        (tag == FineTag::ReadOnly && !write)) {
        // Fine-grain tag hit: serviced by local memory.
        Tick done = d.memory.access(now + p.sramAccess, addr);
        d.stats.pageCacheHits++;
        pc.recordHit(page);
        return {done, ServiceKind::PageCache, fill};
    }

    if (tag == FineTag::ReadOnly) {
        // Write to a read-only block: permission-only upgrade.
        Tick done = upgradeRemote(now, block, page);
        pc.setTag(page, idx, FineTag::ReadWrite);
        pc.recordMiss(page);
        return {done, ServiceKind::Remote, CacheState::Modified};
    }

    // Invalid tag: the RAD inhibits memory and fetches from the home.
    FetchResult res = fetchRemote(now, block, page, write);
    pc.setTag(page, idx, write ? FineTag::ReadWrite : FineTag::ReadOnly);
    pc.recordMiss(page);
    return {res.done, ServiceKind::Remote, fill};
}

RadAccess
RNumaRad::access(Tick now, Addr addr, bool write, bool upgrade)
{
    (void)upgrade; // permission requests take the same paths
    Addr page = pageOf(addr);
    PageMode mode = d.pageTable.modeOf(page);

    Tick t = now;
    if (mode == PageMode::Unmapped) {
        // First touch: S-COMA faults the page into the page cache;
        // otherwise the OS takes a soft fault and maps it to the
        // CC-NUMA global physical address (Figures 2b and 4b).
        if (firstTouch_ == PageMode::SComa) {
            t = allocatePage(t, page);
        } else {
            t = chargeOs(t, p.softTrap);
            d.stats.pageFaults++;
            d.pageTable.set(page, PageMode::CCNuma);
        }
        mode = firstTouch_;
    }

    if (mode == PageMode::SComa)
        return pagePath(t, addr, write);
    return blockPath(t, addr, write);
}

bool
RNumaRad::invalidateBlock(Addr block)
{
    block = blockOf(block);
    bool dirty = bc.invalidate(block) == CacheState::Modified;
    Addr page = pageOf(block);
    if (pc.contains(page)) {
        std::size_t idx = blockIndex(block);
        if (pc.tag(page, idx) == FineTag::ReadWrite)
            dirty = true;
        pc.setTag(page, idx, FineTag::Invalid);
    }
    return dirty;
}

void
RNumaRad::downgradeBlock(Addr block)
{
    block = blockOf(block);
    // Only Modified grants write permission, so a read-only line is
    // Shared whether or not its data went home.
    if (CacheLine *line = bc.find(block))
        line->state = CacheState::Shared;
    Addr page = pageOf(block);
    if (pc.contains(page)) {
        std::size_t idx = blockIndex(block);
        if (pc.tag(page, idx) == FineTag::ReadWrite)
            pc.setTag(page, idx, FineTag::ReadOnly);
    }
}

void
RNumaRad::l1Writeback(Tick now, Addr block)
{
    block = blockOf(block);
    Addr page = pageOf(block);
    if (d.pageTable.modeOf(page) == PageMode::SComa &&
        pc.contains(page)) {
        // The page cache is main memory; the dirty line lands in the
        // frame and the tag stays/becomes read-write.
        pc.setTag(page, blockIndex(block), FineTag::ReadWrite);
        return;
    }
    CacheLine *line = bc.find(block);
    if (line && line->valid()) {
        line->state = CacheState::Modified;
        return;
    }
    // Inclusion should make this unreachable, but stay safe: send the
    // dirty data home as a voluntary writeback.
    d.proto.writeback(now, nodeId, block);
    d.stats.writebacks++;
}

bool
RNumaRad::hasWritePermission(Addr block) const
{
    block = blockOf(block);
    const CacheLine *line = bc.find(block);
    if (line && line->state == CacheState::Modified)
        return true;
    Addr page = pageOf(block);
    return pc.contains(page) &&
        pc.tag(page, blockIndex(block)) == FineTag::ReadWrite;
}

} // namespace rnuma
