/**
 * @file
 * The full distributed shared-memory machine: N SMP nodes, the
 * interconnect, the directory protocol, first-touch placement, and
 * the event-driven execution of a workload's per-CPU reference
 * streams. One Machine performs one run under one protocol.
 */

#ifndef RNUMA_SIM_MACHINE_HH
#define RNUMA_SIM_MACHINE_HH

#include <memory>
#include <vector>

#include "common/params.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "net/network.hh"
#include "net/registry.hh"
#include "os/first_touch.hh"
#include "proto/protocol.hh"
#include "proto/registry.hh"
#include "sim/cpu.hh"
#include "sim/event_queue.hh"
#include "sim/node.hh"
#include "workload/workload.hh"

namespace rnuma
{

/** The machine; also the protocol's downcall sink. */
class Machine : public CoherenceSink
{
  public:
    /**
     * Build a machine running the system @p spec describes. The
     * workload must be sealed and provide exactly params.numCpus()
     * streams; the machine reads them in place through its own
     * cursors, so @p wl must outlive run() and is never modified.
     * The spec's factories run here; the spec itself is not retained.
     */
    Machine(const Params &params, const ProtocolSpec &spec,
            const Workload &wl);

    /** Execute the workload to completion; returns the statistics. */
    RunStats run();

    //--- CoherenceSink ------------------------------------------------------
    bool invalidateNodeCopy(NodeId node, Addr block) override;
    void downgradeNodeCopy(NodeId node, Addr block) override;

    //--- Introspection ------------------------------------------------------
    Node &node(NodeId n) { return *nodes_[n]; }
    GlobalProtocol &protocol() { return *proto_; }
    /** Registry id of the system this machine runs ("ccnuma", ...). */
    const std::string &protocolId() const { return protocolId_; }
    NetworkModel &network() { return *net_; }
    FirstTouchPlacement &placement() { return place_; }
    const RunStats &stats() const { return stats_; }
    const Params &params() const { return p; }

  private:
    Params p;
    std::string protocolId_;
    /** log2 of the page size: the page of an address is a shift. */
    unsigned pageShift;
    RunStats stats_;
    FirstTouchPlacement place_;
    std::unique_ptr<NetworkModel> net_;
    std::vector<std::unique_ptr<Memory>> mems_;
    std::unique_ptr<GlobalProtocol> proto_;
    std::vector<std::unique_ptr<Node>> nodes_;
    EventQueue eq_;
    std::vector<CpuState> cpus_;
    std::size_t finished = 0;
    std::size_t barrierArrived = 0;
    Tick barrierMax = 0;
    bool ran = false;

    /** Advance one CPU until it blocks (miss, barrier, or end). */
    void step(CpuId cpu);

    /** Execute a miss at the CPU's current time; returns completion. */
    Tick processMiss(CpuState &cs, Addr addr, bool write);

    /** Release the barrier if every active CPU has arrived. */
    void maybeReleaseBarrier();

};

} // namespace rnuma

#endif // RNUMA_SIM_MACHINE_HH
