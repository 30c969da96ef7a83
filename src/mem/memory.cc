#include "mem/memory.hh"

#include "common/geometry.hh"
#include "common/logging.hh"

namespace rnuma
{

Memory::Memory(Tick dram_latency, std::size_t block_bytes,
               std::size_t banks)
    : latency(dram_latency), blockShift(ceilLog2(block_bytes)),
      bankMask(banks - 1)
{
    RNUMA_ASSERT(isPow2(block_bytes),
                 "memory interleave must be a power of two: ",
                 block_bytes);
    RNUMA_ASSERT(isPow2(banks),
                 "memory bank count must be a power of two: ", banks);
    // A bank is busy for the access latency itself; back-to-back
    // accesses to different banks overlap fully.
    banks_.reserve(banks);
    for (std::size_t i = 0; i < banks; ++i)
        banks_.emplace_back(latency);
}

Tick
Memory::access(Tick now, Addr addr)
{
    const std::size_t bank =
        static_cast<std::size_t>(addr >> blockShift) & bankMask;
    Tick grant = banks_[bank].acquire(now);
    return grant + latency;
}

Tick
Memory::waited() const
{
    Tick total = 0;
    for (const auto &b : banks_)
        total += b.waited();
    return total;
}

} // namespace rnuma
