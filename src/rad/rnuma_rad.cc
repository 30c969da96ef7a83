#include "rad/rnuma_rad.hh"

namespace rnuma
{

RNumaRad::RNumaRad(const Params &params, NodeId node, RadDeps deps,
                   std::unique_ptr<RelocationPolicy> policy)
    : Rad(params, node, deps),
      bc(params.rnumaBlockCacheSize, params, false),
      pc(params.pageCacheFrames(), params.blocksPerPage()),
      policy_(std::move(policy))
{
    if (!policy_) {
        policy_ = std::make_unique<StaticThresholdPolicy>(
            params.relocationThreshold);
    }
}

std::size_t
RNumaRad::flushPage(Tick now, Addr victim_page)
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
RNumaRad::relocate(Tick now, Addr page)
{
    d.stats.relocations++;

    // Make room: replace the least-recently-missed page if the cache
    // is full. The evicted page reverts to CC-NUMA on its next touch
    // (it becomes unmapped), and its counter restarts.
    Tick t = now;
    if (pc.full()) {
        Addr victim = pc.lrmVictim();
        std::size_t flushed = flushPage(t, victim);
        // Read the residency's hit count before the frame is
        // recycled: it is the utility signal the policy learns from
        // and the wasted-relocation observability counters record.
        std::uint64_t hits = pc.hitsOf(victim);
        pc.erase(victim);
        d.pageTable.unmap(victim);
        policy_->onEvicted(victim, hits);
        d.stats.scomaReplacements++;
        d.stats.evictedPageHits += hits;
        if (hits == 0)
            d.stats.evictionsZeroHit++;
        t = d.vm.chargeAllocation(t, flushed);
    }
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
    t = d.vm.chargeRelocation(t, moved);
    d.pageTable.set(page, PageMode::SComa);
    policy_->onRelocated(page);
    return t;
}

RadAccess
RNumaRad::blockPath(Tick now, Addr addr, bool write)
{
    Addr page = pageOf(addr);
    Addr block = blockOf(addr);

    CacheLine *line = bc.find(block);
    if (line && line->valid()) {
        if (!write || line->state == CacheState::Modified) {
            bc.touch(line);
            d.stats.blockCacheHits++;
            return {now + p.sramAccess + p.busLatency,
                    ServiceKind::BlockCache,
                    write ? CacheState::Modified : CacheState::Shared};
        }
        FetchResult res = d.proto.fetch(now, nodeId, block,
                                        ReqType::Upgrade);
        d.stats.invalidationsSent +=
            static_cast<std::uint64_t>(res.invalidations);
        d.stats.markSharedWrite(page);
        line->state = CacheState::Modified;
        bc.touch(line);
        return {res.done, ServiceKind::Remote, CacheState::Modified};
    }

    Cache::Victim victim;
    CacheLine *nl = bc.allocate(block, victim);
    if (victim.valid && victim.state == CacheState::Modified) {
        d.l1.invalidateL1Block(victim.addr);
        d.proto.writeback(now, nodeId, victim.addr);
        d.stats.writebacks++;
    }

    FetchResult res = d.proto.fetch(now, nodeId, block,
                                    write ? ReqType::GetX : ReqType::GetS);
    nl->state = write ? CacheState::Modified : CacheState::Shared;
    bc.touch(nl);
    d.stats.recordFetch(page, res.kind, write, true);
    d.stats.invalidationsSent +=
        static_cast<std::uint64_t>(res.invalidations);
    if (res.threeHop)
        d.stats.forwards++;

    Tick done = d.bus.acquire(res.done) + p.busLatency;

    // The reactive mechanism: report capacity/conflict refetches to
    // the relocation policy; when it fires, the RAD interrupts and
    // the OS relocates the page into the page cache (Figure 4b).
    if (res.kind == MissKind::Refetch && policy_->onRefetch(page)) {
        done = relocate(done, page);
    }

    return {done, ServiceKind::Remote,
            write ? CacheState::Modified : CacheState::Shared};
}

RadAccess
RNumaRad::pagePath(Tick now, Addr addr, bool write)
{
    Addr page = pageOf(addr);
    Addr block = blockOf(addr);
    std::size_t idx = blockIndex(addr);
    FineTag tag = pc.tag(page, idx);

    if (tag == FineTag::ReadWrite ||
        (tag == FineTag::ReadOnly && !write)) {
        Tick done = d.memory.access(now + p.sramAccess, addr);
        d.stats.pageCacheHits++;
        pc.recordHit(page);
        return {done, ServiceKind::PageCache,
                write ? CacheState::Modified : CacheState::Shared};
    }

    if (tag == FineTag::ReadOnly) {
        FetchResult res = d.proto.fetch(now, nodeId, block,
                                        ReqType::Upgrade);
        d.stats.invalidationsSent +=
            static_cast<std::uint64_t>(res.invalidations);
        d.stats.markSharedWrite(page);
        pc.setTag(page, idx, FineTag::ReadWrite);
        pc.recordMiss(page);
        return {res.done, ServiceKind::Remote, CacheState::Modified};
    }

    FetchResult res = d.proto.fetch(now, nodeId, block,
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

RadAccess
RNumaRad::access(Tick now, Addr addr, bool write, bool upgrade)
{
    (void)upgrade;
    Addr page = pageOf(addr);
    PageMode mode = d.pageTable.modeOf(page);

    Tick t = now;
    if (mode == PageMode::Unmapped) {
        // First touch: the OS initially maps the page CC-NUMA
        // (Figure 4b).
        t = d.vm.chargeMapFault(t);
        d.pageTable.set(page, PageMode::CCNuma);
        mode = PageMode::CCNuma;
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
    bc.downgrade(block);
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
        pc.setTag(page, blockIndex(block), FineTag::ReadWrite);
        return;
    }
    CacheLine *line = bc.find(block);
    if (line && line->valid()) {
        line->state = CacheState::Modified;
        bc.touch(line);
        return;
    }
    d.proto.writeback(now, nodeId, block);
    d.stats.writebacks++;
}

bool
RNumaRad::hasWritePermission(Addr block) const
{
    block = blockOf(block);
    if (bc.ownsBlock(block))
        return true;
    Addr page = pageOf(block);
    return pc.contains(page) &&
        pc.tag(page, blockIndex(block)) == FineTag::ReadWrite;
}

} // namespace rnuma
