#include "sim/node.hh"

#include "common/geometry.hh"
#include "common/logging.hh"

namespace rnuma
{

Node::Node(const Params &params, NodeId id, const ProtocolSpec &spec,
           Memory &memory, GlobalProtocol &proto_, RunStats &stats_)
    : p(params), id_(id), proto(proto_), stats(stats_), mem(memory),
      bus_(params.busOccupancy),
      l1s_(params.l1Size, params.blockSize, false, params.cpusPerNode),
      pageShift(ceilLog2(params.pageSize))
{
    rad_ = spec.makeRad(p, id,
                        RadDeps{proto, stats, bus_, mem, pageTable_,
                                *this});
}

CacheLine *
Node::snoopOwned(std::size_t cpu, Addr block)
{
    CacheLine *set = l1s_.setLines(block);
    for (std::size_t i = 0; i < p.cpusPerNode; ++i) {
        if (i != cpu && set[i].addr == block && isDirty(set[i].state))
            return &set[i];
    }
    return nullptr;
}

void
Node::invalidateOtherL1s(std::size_t cpu, Addr block)
{
    CacheLine *set = l1s_.setLines(block);
    for (std::size_t i = 0; i < p.cpusPerNode; ++i)
        if (i != cpu && set[i].addr == block && set[i].valid())
            set[i] = CacheLine{};
}

bool
Node::nodeHasWritePermission(Addr block, bool is_home) const
{
    if (is_home)
        return proto.onlyHolder(id_, block);
    return rad_->hasWritePermission(block);
}

void
Node::fillL1(Tick now, std::size_t cpu, Addr block, CacheState st)
{
    Cache::Victim v;
    CacheLine *nl = l1s_.allocate(block, v, cpu);
    nl->state = st;
    if (!v.valid || !isDirty(v.state))
        return;
    // Dirty victim: write it back to the node-level holder. The
    // writeback buffer hides the latency from the CPU; occupancy of
    // the destination is still charged.
    NodeId vhome = proto.homeOf(v.addr);
    if (vhome == id_) {
        mem.access(now, v.addr);
    } else {
        rad_->l1Writeback(now, v.addr);
    }
}

Tick
Node::access(Tick now, std::size_t cpu, Addr addr, bool write,
             bool is_home)
{
    Addr block = blockOf(addr);
    CacheLine *line = l1s_.find(block, cpu);

    if (line) {
        // tryHit() failed and other CPUs only invalidate or downgrade
        // this bank, so a present line is a write to a non-writable
        // line: a permission upgrade.
        stats.upgrades++;
        Tick t = bus_.acquire(now) + p.busLatency;
        if (nodeHasWritePermission(block, is_home)) {
            // Another on-node structure holds the block writable; a
            // bus transaction transfers ownership locally.
            invalidateOtherL1s(cpu, block);
            line->state = CacheState::Modified;
            return t;
        }
        Tick done;
        if (is_home) {
            FetchResult res = proto.fetch(t, id_, block,
                                          ReqType::Upgrade);
            stats.invalidationsSent +=
                static_cast<std::uint64_t>(res.invalidations);
            if (res.invalidations > 0)
                stats.markSharedWrite(addr >> pageShift);
            done = res.done;
        } else {
            RadAccess ra = rad_->access(t, addr, true, true);
            done = ra.done;
        }
        invalidateOtherL1s(cpu, block);
        // The RAD access may have relocated the page and purged this
        // very line; re-probe rather than resurrecting a stale
        // pointer.
        line = l1s_.find(block, cpu);
        if (line)
            line->state = CacheState::Modified;
        else
            fillL1(done, cpu, block, CacheState::Modified);
        return done;
    }

    // L1 miss.
    stats.l1Misses++;
    Tick t = bus_.acquire(now) + p.busLatency;

    // On-node snoop: MBus supports cache-to-cache transfer only for
    // owned lines; clean-shared copies cannot supply data
    // (Section 4).
    CacheLine *sup = snoopOwned(cpu, block);
    if (sup) {
        Tick done = t + p.sramAccess;
        stats.nodeTransfers++;
        if (write) {
            invalidateOtherL1s(cpu, block);
            fillL1(done, cpu, block, CacheState::Modified);
        } else {
            if (sup->state == CacheState::Modified)
                sup->state = CacheState::Owned;
            fillL1(done, cpu, block, CacheState::Shared);
        }
        return done;
    }

    Tick done;
    CacheState fill_state = write ? CacheState::Modified
                                  : CacheState::Shared;
    if (is_home) {
        FetchResult res = proto.fetch(t, id_, block,
                                      write ? ReqType::GetX
                                            : ReqType::GetS);
        stats.invalidationsSent +=
            static_cast<std::uint64_t>(res.invalidations);
        if (write && res.invalidations > 0)
            stats.markSharedWrite(addr >> pageShift);
        if (res.threeHop)
            stats.forwards++;
        else
            stats.localFills++;
        done = res.done;
    } else {
        RadAccess ra = rad_->access(t, addr, write, false);
        done = ra.done;
        fill_state = ra.fillState;
    }
    if (write)
        invalidateOtherL1s(cpu, block);
    fillL1(done, cpu, block, fill_state);
    return done;
}

CacheState
Node::invalidateL1Block(Addr block)
{
    block = blockOf(block);
    CacheState strongest = CacheState::Invalid;
    CacheLine *set = l1s_.setLines(block);
    for (std::size_t i = 0; i < p.cpusPerNode; ++i) {
        if (set[i].addr != block || !set[i].valid())
            continue;
        // CacheState is declared weakest first.
        if (set[i].state > strongest)
            strongest = set[i].state;
        set[i] = CacheLine{};
    }
    return strongest;
}

bool
Node::invalidateAll(Addr block)
{
    block = blockOf(block);
    CacheState l1st = invalidateL1Block(block);
    bool rad_dirty = rad_->invalidateBlock(block);
    return isDirty(l1st) || rad_dirty;
}

void
Node::downgradeAll(Addr block)
{
    block = blockOf(block);
    CacheLine *set = l1s_.setLines(block);
    for (std::size_t i = 0; i < p.cpusPerNode; ++i)
        if (set[i].addr == block && set[i].valid())
            set[i].state = CacheState::Shared;
    rad_->downgradeBlock(block);
}

} // namespace rnuma
