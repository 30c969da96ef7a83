#include "common/stats.hh"

#include <algorithm>
#include <ostream>

namespace rnuma
{

void
RunStats::recordFetch(Addr page, MissKind kind, bool write)
{
    remoteFetches++;
    switch (kind) {
      case MissKind::Cold:      coldMisses++; break;
      case MissKind::Coherence: coherenceMisses++; break;
      case MissKind::Refetch:   refetches++; break;
    }
    PageStats &ps = pages.slot(page);
    ps.remoteFetches++;
    if (kind == MissKind::Refetch)
        ps.refetches++;
    if (write)
        ps.remoteWrite = true;
    else
        ps.remoteRead = true;
}

void
RunStats::markSharedWrite(Addr page)
{
    if (pages[page].remoteFetches)
        pages.slot(page).remoteWrite = true;
}

std::size_t
RunStats::remotePageCount() const
{
    std::size_t n = 0;
    for (const PageStats &ps : pages)
        n += ps.remoteFetches != 0;
    return n;
}

std::vector<std::uint64_t>
RunStats::refetchDistribution() const
{
    std::vector<std::uint64_t> v;
    for (const PageStats &ps : pages)
        if (ps.remoteFetches)
            v.push_back(ps.refetches);
    std::sort(v.begin(), v.end(), std::greater<>());
    return v;
}

double
RunStats::rwPageRefetchFraction() const
{
    std::uint64_t total = 0;
    std::uint64_t rw = 0;
    for (const PageStats &ps : pages) {
        total += ps.refetches;
        if (ps.readWriteShared())
            rw += ps.refetches;
    }
    return total == 0 ? 0.0 : static_cast<double>(rw) /
        static_cast<double>(total);
}

void
RunStats::print(std::ostream &os) const
{
    os << "ticks=" << ticks
       << " events=" << events
       << " refs=" << refs
       << " l1Hits=" << l1Hits
       << " l1Misses=" << l1Misses
       << "\nremoteFetches=" << remoteFetches
       << " (cold=" << coldMisses
       << " coherence=" << coherenceMisses
       << " refetch=" << refetches << ")"
       << "\nblockCacheHits=" << blockCacheHits
       << " pageCacheHits=" << pageCacheHits
       << " localFills=" << localFills
       << "\npageFaults=" << pageFaults
       << " allocations=" << scomaAllocations
       << " replacements=" << scomaReplacements
       << " relocations=" << relocations
       << "\nevictionsZeroHit=" << evictionsZeroHit
       << " evictedPageHits=" << evictedPageHits
       << "\nbusWait=" << busWait
       << " niWait=" << niWait
       << " osCycles=" << osCycles
       << "\nnetMessages=" << net.totalMessages()
       << " dirEntries=" << dirEntries
       << " dirBits=" << dirBits
       << "\n";
}

bool
operator==(const PageStats &a, const PageStats &b)
{
    return a.refetches == b.refetches &&
        a.remoteFetches == b.remoteFetches &&
        a.remoteRead == b.remoteRead &&
        a.remoteWrite == b.remoteWrite;
}

bool
operator==(const NetworkStats &a, const NetworkStats &b)
{
    for (std::size_t k = 0; k < numMsgKinds; ++k)
        if (a.messages[k] != b.messages[k])
            return false;
    return true;
}

bool
operator==(const RunStats &a, const RunStats &b)
{
    return a.ticks == b.ticks && a.events == b.events &&
        a.refs == b.refs &&
        a.l1Hits == b.l1Hits && a.l1Misses == b.l1Misses &&
        a.upgrades == b.upgrades && a.barriers == b.barriers &&
        a.localFills == b.localFills &&
        a.nodeTransfers == b.nodeTransfers &&
        a.blockCacheHits == b.blockCacheHits &&
        a.pageCacheHits == b.pageCacheHits &&
        a.remoteFetches == b.remoteFetches &&
        a.refetches == b.refetches &&
        a.coherenceMisses == b.coherenceMisses &&
        a.coldMisses == b.coldMisses &&
        a.invalidationsSent == b.invalidationsSent &&
        a.forwards == b.forwards && a.writebacks == b.writebacks &&
        a.flushedBlocks == b.flushedBlocks &&
        a.pageFaults == b.pageFaults &&
        a.scomaAllocations == b.scomaAllocations &&
        a.scomaReplacements == b.scomaReplacements &&
        a.relocations == b.relocations &&
        a.evictionsZeroHit == b.evictionsZeroHit &&
        a.evictedPageHits == b.evictedPageHits &&
        a.busWait == b.busWait &&
        a.niWait == b.niWait && a.osCycles == b.osCycles &&
        a.stallCycles == b.stallCycles && a.net == b.net &&
        a.dirEntries == b.dirEntries && a.dirBits == b.dirBits &&
        a.pages == b.pages;
}

} // namespace rnuma
