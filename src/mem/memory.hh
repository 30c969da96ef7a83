/**
 * @file
 * Interleaved main-memory model. Each node's memory is divided into
 * banks interleaved at block granularity; concurrent accesses to the
 * same bank serialize, adding contention on top of the fixed DRAM
 * latency from Table 2.
 */

#ifndef RNUMA_MEM_MEMORY_HH
#define RNUMA_MEM_MEMORY_HH

#include <vector>

#include "common/types.hh"
#include "mem/bus.hh"

namespace rnuma
{

/** One node's interleaved DRAM. */
class Memory
{
  public:
    /**
     * @param dram_latency access latency in cycles (Table 2: 56)
     * @param block_bytes  interleave granularity (a power of two)
     * @param banks        number of independent banks (a power of
     *                     two, so the bank select is a shift and mask)
     */
    Memory(Tick dram_latency, std::size_t block_bytes,
           std::size_t banks = 4);

    /**
     * Access the bank holding @p addr starting at @p now; returns the
     * completion time (grant + DRAM latency).
     */
    Tick access(Tick now, Addr addr);

    /** Aggregate queueing delay across banks. */
    Tick waited() const;

  private:
    Tick latency;
    unsigned blockShift;
    std::size_t bankMask;
    std::vector<Resource> banks_;
};

} // namespace rnuma

#endif // RNUMA_MEM_MEMORY_HH
