#include "sim/machine.hh"

#include "common/logging.hh"

namespace rnuma
{

Machine::Machine(const Params &params, const ProtocolSpec &spec,
                 Workload &wl_)
    : p(params), protocolId_(spec.id), wl(wl_),
      cpuMap{params.cpusPerNode}, net_(makeNetwork(params)),
      eq_(params.numCpus())
{
    p.validate();
    RNUMA_ASSERT(spec.valid(), "protocol spec '", spec.id,
                 "' has no Rad factory");
    RNUMA_ASSERT(wl.numCpus() == p.numCpus(),
                 "workload has ", wl.numCpus(), " cpus, machine has ",
                 p.numCpus());

    mems_.reserve(p.numNodes);
    std::vector<Memory *> mem_ptrs;
    for (NodeId n = 0; n < p.numNodes; ++n) {
        mems_.push_back(
            std::make_unique<Memory>(p.dramAccess, p.blockSize));
        mem_ptrs.push_back(mems_.back().get());
    }

    proto_ = std::make_unique<GlobalProtocol>(p, *net_, place_,
                                              *this, mem_ptrs);

    nodes_.reserve(p.numNodes);
    for (NodeId n = 0; n < p.numNodes; ++n) {
        nodes_.push_back(std::make_unique<Node>(p, n, spec,
                                                *mems_[n], *proto_,
                                                stats_));
    }

    cpus_.resize(p.numCpus());
}

bool
Machine::invalidateNodeCopy(NodeId node, Addr block)
{
    return nodes_[node]->invalidateAll(block);
}

void
Machine::downgradeNodeCopy(NodeId node, Addr block)
{
    nodes_[node]->downgradeAll(block);
}

void
Machine::maybeReleaseBarrier()
{
    std::size_t active = cpus_.size() - finished;
    if (barrierArrived == 0 || barrierArrived < active)
        return;
    Tick resume = barrierMax + p.barrierCost;
    stats_.barriers++;
    barrierArrived = 0;
    barrierMax = 0;
    for (CpuId c = 0; c < cpus_.size(); ++c) {
        CpuState &cs = cpus_[c];
        if (cs.done || !cs.waiting)
            continue;
        cs.waiting = false;
        cs.barrierWait += resume > cs.time ? resume - cs.time : 0;
        cs.time = resume;
        eq_.schedule(resume, c);
    }
}

Tick
Machine::processMiss(CpuId cpu, const Ref &r)
{
    CpuState &cs = cpus_[cpu];
    NodeId n = cpuMap.nodeOf(cpu);
    Addr page = r.addr / p.pageSize;
    NodeId home = place_.touch(page, n);
    Tick before = cs.time;
    Tick done = nodes_[n]->access(cs.time, cpuMap.localOf(cpu), r.addr,
                                  r.write, home == n);
    cs.stalled += done - before;
    stats_.stallCycles += done - before;
    return done;
}

void
Machine::step(CpuId cpu)
{
    CpuState &cs = cpus_[cpu];
    if (cs.done || cs.waiting)
        return;

    if (cs.hasPending) {
        // A deferred miss, now at the head of global time order.
        Ref r = cs.pending;
        cs.hasPending = false;
        cs.time = processMiss(cpu, r);
        eq_.schedule(cs.time, cpu);
        return;
    }

    while (true) {
        const Ref &r = wl.next(cpu);
        switch (r.kind) {
          case RefKind::InitTouch:
            // Pre-parallel placement: the toucher becomes the home.
            place_.touch(r.addr / p.pageSize, cpuMap.nodeOf(cpu));
            continue;

          case RefKind::End:
            cs.done = true;
            finished++;
            if (cs.time > stats_.ticks)
                stats_.ticks = cs.time;
            maybeReleaseBarrier();
            return;

          case RefKind::Barrier:
            barrierArrived++;
            if (cs.time > barrierMax)
                barrierMax = cs.time;
            cs.waiting = true;
            maybeReleaseBarrier();
            return;

          case RefKind::Mem: {
            cs.time += r.think;
            stats_.refs++;
            NodeId n = cpuMap.nodeOf(cpu);
            if (nodes_[n]->tryHit(cpuMap.localOf(cpu), r.addr,
                                  r.write)) {
                continue; // L1 hit: no shared state touched
            }
            // A miss interacts with shared resources (bus, memory,
            // directory, network); it must execute in global time
            // order. If this CPU has run ahead of the event queue,
            // defer the miss to its own event.
            if (!eq_.empty() && eq_.peekTime() < cs.time) {
                cs.hasPending = true;
                cs.pending = r;
                cs.pending.think = 0; // think already applied
                eq_.schedule(cs.time, cpu);
                return;
            }
            cs.time = processMiss(cpu, r);
            // Yield so other CPUs' events interleave before this
            // CPU's next shared-state interaction.
            eq_.schedule(cs.time, cpu);
            return;
          }
        }
    }
}

RunStats
Machine::run()
{
    RNUMA_ASSERT(!ran, "Machine::run() may only be called once");
    ran = true;

    for (CpuId c = 0; c < cpus_.size(); ++c)
        eq_.schedule(0, c);

    while (!eq_.empty()) {
        Event e = eq_.pop();
        step(static_cast<CpuId>(e.tag));
    }

    if (finished != cpus_.size()) {
        RNUMA_PANIC("deadlock: only ", finished, " of ", cpus_.size(),
                    " cpus finished (mismatched barriers?)");
    }

    for (auto &n : nodes_)
        stats_.busWait += n->bus().waited();
    stats_.niWait = net_->waited();
    stats_.net = net_->stats();
    stats_.dirEntries = proto_->dirEntryCount();
    stats_.dirBits = proto_->dirStorageBits();
    stats_.events = eq_.processed();
    return stats_;
}

} // namespace rnuma
