/**
 * @file
 * The one contention primitive of the timing model. A Resource is a
 * serially occupied unit: each use holds it for a fixed occupancy and
 * later requesters queue in FIFO order. Every contended structure is
 * one: a node's split-transaction memory bus (the paper's 100 MHz
 * MBus, without individual bus phases), the network interfaces, the
 * mesh links, the home protocol controllers and the DRAM banks.
 *
 * Header-only: acquire() sits on the access hot path (every L1 miss
 * arbitrates for its node's bus), and its few statements inline away.
 */

#ifndef RNUMA_MEM_BUS_HH
#define RNUMA_MEM_BUS_HH

#include "common/types.hh"

namespace rnuma
{

/** A FIFO-arbitrated, fixed-occupancy shared resource. */
class Resource
{
  public:
    explicit Resource(Tick occupancy_per_use)
        : occupancy(occupancy_per_use)
    {}

    /**
     * Acquire the resource at time @p now. Returns the grant time
     * (>= now); the resource is busy until grant + occupancy.
     */
    Tick
    acquire(Tick now)
    {
        Tick grant = now > nextFree ? now : nextFree;
        waitTotal += grant - now;
        nextFree = grant + occupancy;
        return grant;
    }

    /** Total queueing delay experienced by all users. */
    Tick waited() const { return waitTotal; }

    /** Per-use occupancy. */
    Tick occupancyPerUse() const { return occupancy; }

  private:
    Tick occupancy;
    Tick nextFree = 0;
    Tick waitTotal = 0;
};

} // namespace rnuma

#endif // RNUMA_MEM_BUS_HH
