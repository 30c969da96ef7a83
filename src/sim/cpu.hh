/**
 * @file
 * Processor model. The paper's nodes contain 400 MHz dual-issue,
 * statically scheduled processors (Ross HyperSparc). Here a CPU is a
 * stream cursor plus a local clock: compute (think) cycles accumulate
 * arithmetically, memory references consult the L1, and misses
 * suspend the CPU until the node/RAD/home round trip completes.
 */

#ifndef RNUMA_SIM_CPU_HH
#define RNUMA_SIM_CPU_HH

#include "common/types.hh"
#include "workload/workload.hh"

namespace rnuma
{

/** Per-CPU execution state owned by the Machine. */
struct CpuState
{
    /** Next entry of this CPU's sealed stream (read in place). */
    const Ref *cursor = nullptr;
    /** Local clock: when this CPU's next instruction issues. */
    Tick time = 0;
    /** Stream exhausted. */
    bool done = false;
    /** Parked at a barrier awaiting release. */
    bool waiting = false;
    /**
     * A miss that must wait its turn in global time order: the CPU
     * ran ahead of the event queue on L1 hits, so the shared-resource
     * access is deferred to an event at the miss tick (keeping bus,
     * memory, directory and network acquisitions causally ordered).
     */
    bool hasPending = false;
    Ref pending{};
    /** Node of this CPU (global id = node * cpusPerNode + local). */
    NodeId node = 0;
    /** This CPU's index within its node: its L1 bank. */
    std::size_t local = 0;
};

} // namespace rnuma

#endif // RNUMA_SIM_CPU_HH
