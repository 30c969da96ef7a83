/**
 * @file
 * Fundamental scalar types and identifiers shared by every module of
 * the R-NUMA simulator.
 */

#ifndef RNUMA_COMMON_TYPES_HH
#define RNUMA_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>

namespace rnuma
{

/** Simulated time, in 400 MHz processor cycles. */
using Tick = std::uint64_t;

/** A global physical address (high-order bits encode the home node). */
using Addr = std::uint64_t;

/** Identifies one SMP node in the machine. */
using NodeId = std::uint32_t;

/** Identifies one processor, globally (node * cpusPerNode + local). */
using CpuId = std::uint32_t;

/** Sentinel for "no node" (e.g., a directory entry with no owner). */
constexpr NodeId invalidNode = std::numeric_limits<NodeId>::max();

/** Sentinel address used for "no block / no page". */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/**
 * Upper bound on nodes (Params::validate) and the scaling ceiling.
 * The directory (proto/directory.hh) sizes its sets to the configured
 * machine, not to this bound.
 */
constexpr std::size_t maxNodes = 512;

/**
 * Upper bound on the page numbers (addr / pageSize) the simulator
 * accepts: 4 Mi pages, 16 GiB of address space at the base 4 KiB
 * page. Every page-indexed table (common/page_indexed.hh) is fatal
 * past it, and every generator option that sizes an allocation in
 * pages is bounded by it (WorkloadOptions::getSize), so a hostile
 * size is a named error instead of a bad_alloc.
 */
constexpr std::size_t maxPages = std::size_t{1} << 22;

/** Upper bound on Params::pageSize (validate()): 4 MiB. */
constexpr std::size_t maxPageSize = std::size_t{1} << 22;

/**
 * Width of every simulated address: maxPages pages of at most
 * maxPageSize bytes. The packed host records (workload Ref, mem
 * CacheLine) hold an address in this many bits.
 */
constexpr unsigned addrBits = 44;
static_assert((Addr{maxPages} * maxPageSize) >> addrBits == 1,
              "maxPages pages of maxPageSize bytes span addrBits");

/** Message categories, for traffic accounting. */
enum class MsgKind : std::uint8_t
{
    Request,      ///< block fetch request to a home
    Reply,        ///< data reply from a home
    Invalidate,   ///< directory-initiated invalidation
    Forward,      ///< three-hop forward to a dirty owner
    Writeback,    ///< voluntary block writeback
    Flush         ///< page-replacement flush of a block
};

constexpr std::size_t numMsgKinds = 6;

/**
 * Directory sharer-set representation (proto/directory.hh). FullMap
 * is the paper's exact per-node bit vector; LimitedPointer (Dir_iB)
 * stores up to Params::dirPointers exact node ids and degrades to
 * broadcast on overflow; CoarseVector keeps one bit per
 * Params::dirRegionSize-node region. Both sparse formats
 * over-approximate: they may invalidate non-sharers but never miss a
 * true sharer.
 */
enum class SharerFormat : std::uint8_t
{
    FullMap,
    LimitedPointer,
    CoarseVector
};

} // namespace rnuma

#endif // RNUMA_COMMON_TYPES_HH
