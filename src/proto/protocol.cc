#include "proto/protocol.hh"

#include <array>

#include "common/geometry.hh"
#include "common/logging.hh"

namespace rnuma
{

GlobalProtocol::GlobalProtocol(const Params &params,
                               NetworkModel &net_,
                               const Placement &placement,
                               CoherenceSink &sink_,
                               std::vector<Memory *> memories)
    : p(params), net(net_), place(placement), sink(sink_),
      mems(std::move(memories)),
      dir_(p.blockSize, p.blocksPerPage(), DirConfig::fromParams(p)),
      pageShift(ceilLog2(p.pageSize))
{
    RNUMA_ASSERT(mems.size() == p.numNodes,
                 "need one memory per node, got ", mems.size());
    controllers.reserve(p.numNodes);
    for (std::size_t i = 0; i < p.numNodes; ++i)
        controllers.emplace_back(p.radOccupancy);
}

NodeId
GlobalProtocol::homeOf(Addr addr) const
{
    return place.homeOf(addr >> pageShift);
}

bool
GlobalProtocol::nodeOwns(NodeId node, Addr block) const
{
    const DirEntry *e = dir_.peek(blockAlign(block));
    return e && e->owner == node;
}

bool
GlobalProtocol::onlyHolder(NodeId node, Addr block) const
{
    const DirEntry *e = dir_.peek(blockAlign(block));
    if (!e)
        return true;
    if (e->hasOwner() && e->owner != node)
        return false;
    return dir_.sharers(*e).noneExcept(node);
}

MissKind
GlobalProtocol::classify(const DirEntry &e, NodeId requester,
                         ReqType type) const
{
    if (type == ReqType::Upgrade) {
        // The node holds valid data; this is permission traffic, not
        // a block refetch.
        return MissKind::Coherence;
    }
    if (dir_.sharers(e).test(requester) ||
        dir_.prior(e).test(requester) || e.owner == requester) {
        // The directory believes the node already has the block: the
        // node lost it to capacity or conflict (Section 3.1).
        return MissKind::Refetch;
    }
    if (dir_.touched(e).test(requester))
        return MissKind::Coherence;
    return MissKind::Cold;
}

FetchResult
GlobalProtocol::fetch(Tick now, NodeId requester, Addr block,
                      ReqType type)
{
    block = blockAlign(block);
    NodeId home = homeOf(block);
    DirEntry &e = dir_.entry(block);
    SharerSet sharers = dir_.sharers(e);
    SharerSet prior = dir_.prior(e);

    FetchResult res;
    res.kind = classify(e, requester, type);

    const bool local = requester == home;
    const bool write = type != ReqType::GetS;
    const bool need_data = type != ReqType::Upgrade;

    Tick t = now;
    if (!local) {
        // Outbound RAD traversal + request message to the home, then
        // the home controller performs the directory lookup. Local
        // accesses probe the directory in parallel with memory.
        t = controllers[requester].acquire(t) + p.radOccupancy;
        t = net.send(t, requester, home, MsgKind::Request);
        t = controllers[home].acquire(t) + p.dirAccess;
    }

    // Data acquisition: three-hop forward from a dirty owner, or a
    // home memory access.
    Tick data_at = t;
    if (need_data && e.hasOwner() && e.owner != requester) {
        NodeId owner = e.owner;
        Tick f = net.send(t, home, owner, MsgKind::Forward);
        f = controllers[owner].acquire(f) + p.sramAccess;
        // The dirty data returns home asynchronously.
        net.post(f, owner, home, MsgKind::Writeback);
        data_at = net.send(f, owner, local ? home : requester,
                           MsgKind::Reply);
        res.threeHop = true;
        if (write) {
            // Owner loses its copy below, with the other sharers.
        } else {
            sink.downgradeNodeCopy(owner, block);
            sharers.set(owner);
            e.owner = invalidNode;
        }
    } else if (need_data) {
        data_at = mems[home]->access(t, block);
        if (!local)
            data_at = net.send(data_at, home, requester, MsgKind::Reply);
    } else if (!local) {
        // Upgrade acknowledgment carries no data.
        data_at = net.send(t, home, requester, MsgKind::Reply);
    }

    // Invalidations for writes: sent in parallel from the home; the
    // requester waits for data and all acknowledgments.
    Tick ack_at = t;
    if (write) {
        // Sparse sharer sets may over-approximate (broadcast or
        // region bits), so the targets can include nodes that never
        // held the block — the modeled cost of a sparse directory,
        // charged below in messages and ack time. Every true sharer
        // is always covered. The targets are every apparent sharer
        // plus the owner, snapshotted in ascending node order before
        // any callback: the order is observable, since a mesh
        // acquires its links in post order.
        std::array<NodeId, maxNodes> targets;
        std::size_t ntargets = 0;
        NodeId owner = e.owner;
        sharers.forEach([&](NodeId m) {
            if (owner < m)
                targets[ntargets++] = owner;
            if (owner <= m)
                owner = invalidNode;
            targets[ntargets++] = m;
        });
        if (owner != invalidNode)
            targets[ntargets++] = owner;

        // A node holds a copy only if it fetched the block (see
        // DirEntry::touched), so the host downcall into any other
        // target would find nothing to invalidate and is skipped.
        const SharerSet touched = dir_.touched(e);
        Tick worst_wire = 0;
        for (std::size_t i = 0; i < ntargets; ++i) {
            const NodeId m = targets[i];
            if (m == requester)
                continue;
            if (touched.test(m))
                sink.invalidateNodeCopy(m, block);
            net.post(t, home, m, MsgKind::Invalidate);
            sharers.reset(m);
            prior.reset(m);
            res.invalidations++;
            const Tick wire = net.latency(home, m);
            if (wire > worst_wire)
                worst_wire = wire;
        }
        if (res.invalidations > 0) {
            // Invalidations fan out in parallel; the requester waits
            // for the farthest round trip (out + ack). The constant
            // model's latency() is netLatency for every pair, which
            // reproduces the historical 2 * netLatency bound exactly.
            ack_at = t + 2 * worst_wire + p.niOccupancy;
        }
    }

    // Directory state update for the requester.
    dir_.touched(e).set(requester);
    prior.reset(requester);
    if (write) {
        sharers.reset();
        sharers.set(requester);
        e.owner = requester;
    } else {
        if (e.owner == requester) {
            // Defensive: a read request from the registered owner
            // means local state was lost without notification; treat
            // the home copy as current and clear ownership.
            e.owner = invalidNode;
        }
        sharers.set(requester);
    }

    Tick done = data_at > ack_at ? data_at : ack_at;
    if (!local)
        done += p.radOccupancy;
    res.done = done;
    return res;
}

void
GlobalProtocol::writeback(Tick now, NodeId from, Addr block)
{
    block = blockAlign(block);
    NodeId home = homeOf(block);
    DirEntry &e = dir_.entry(block);
    if (e.owner == from) {
        e.owner = invalidNode;
        dir_.sharers(e).reset(from);
        // Remember the voluntary writeback so a later re-request is
        // classified as a read-write refetch (Section 3.1). The
        // ablation switch drops this extra state.
        if (p.priorOwnerState)
            dir_.prior(e).set(from);
    }
    net.post(now, from, home, MsgKind::Writeback);
}

void
GlobalProtocol::flushBlock(Tick now, NodeId from, Addr block)
{
    block = blockAlign(block);
    NodeId home = homeOf(block);
    DirEntry &e = dir_.entry(block);
    dir_.sharers(e).reset(from);
    dir_.prior(e).reset(from);
    if (e.owner == from)
        e.owner = invalidNode;
    net.post(now, from, home, MsgKind::Flush);
}

} // namespace rnuma
