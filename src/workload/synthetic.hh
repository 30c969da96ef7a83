/**
 * @file
 * StreamBuilder: the shared toolkit the application generators use to
 * assemble per-CPU reference streams — allocation, init-touch
 * placement, reads/writes with think time, and barriers.
 *
 * The generators substitute for the paper's execution-driven SPLASH-2
 * runs (docs/ARCHITECTURE.md, "`src/workload` — reference streams"):
 * each reproduces its application's sharing signature (remote
 * working-set size, reuse vs communication pages, read-write
 * fraction, spatial density, iteration structure) at the scaled
 * Table 3 input sizes.
 */

#ifndef RNUMA_WORKLOAD_SYNTHETIC_HH
#define RNUMA_WORKLOAD_SYNTHETIC_HH

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/params.hh"
#include "common/rng.hh"
#include "workload/address_space.hh"
#include "workload/workload.hh"

namespace rnuma
{

/**
 * The largest per-CPU bound StreamBuilder::reserve acts on: 4 Mi
 * entries, 32 MiB of Refs per CPU stream. A bound counts every entry
 * a generator might emit, so it can be about twice what the stream
 * holds; past this size, reserving it would claim more memory up front
 * than growing the stream on demand touches.
 */
constexpr std::size_t maxReserveEntries = std::size_t{1} << 22;

/**
 * The product of @p factors plus @p extra, or nothing when the
 * arithmetic overflows or the result exceeds maxReserveEntries.
 */
std::optional<std::size_t>
reserveBound(std::initializer_list<std::size_t> factors, std::size_t extra);

/** Builder for Workload streams. */
class StreamBuilder
{
  public:
    /** Default compute cycles between references. */
    static constexpr std::uint32_t defaultThink = 4;

    StreamBuilder(std::string name, const Params &params,
                  std::uint64_t seed);

    //--- Allocation ---------------------------------------------------------
    Addr allocBytes(std::size_t bytes) { return as.allocBytes(bytes); }
    Addr allocPages(std::size_t n) { return as.allocPages(n); }

    //--- Stream construction -------------------------------------------------
    // The appends are inline so each generator loop compiles down to
    // the push itself.

    /** Placement-only first touch of the page holding @p a. */
    void touch(CpuId cpu, Addr a) { wl->push(cpu, Ref::touchOf(a)); }

    /** First-touch every page of [base, base+bytes); an empty range
     * touches nothing. */
    void touchRange(CpuId cpu, Addr base, std::size_t bytes);

    /** The number of pages touchRange(cpu, base, bytes) touches. */
    std::size_t pagesIn(Addr base, std::size_t bytes) const;

    /**
     * Home the @p pages pages from @p base in contiguous per-node
     * slices, each touched by its node's first CPU; the last node
     * also takes the remainder.
     */
    void homeSliced(Addr base, std::size_t pages);

    /** The number of pages homeSliced(base, pages) homes on @p n. */
    std::size_t
    slicedPages(NodeId n, std::size_t pages) const
    {
        return sliceStart(n + 1, pages) - sliceStart(n, pages);
    }

    /** Home page i of the @p pages from @p base on node i mod
     * nnodes(), touched by that node's first CPU. */
    void homeRoundRobin(Addr base, std::size_t pages);

    /** The number of pages homeRoundRobin(base, pages) homes on
     * @p n. */
    std::size_t
    roundRobinPages(NodeId n, std::size_t pages) const
    {
        return pages / nnodes() + (n < pages % nnodes());
    }

    void
    read(CpuId cpu, Addr a, std::uint32_t think = defaultThink)
    {
        wl->push(cpu, Ref::mem(a, false, think));
    }
    void
    write(CpuId cpu, Addr a, std::uint32_t think = defaultThink)
    {
        wl->push(cpu, Ref::mem(a, true, think));
    }

    /**
     * Reserve @p cpu's stream for the product of @p factors plus
     * @p extra more entries: the generator's upper bound, from its
     * own loop counts, on what it has yet to append to that stream,
     * End marker included. finish() panics, naming the generator and
     * the CPU, if the stream ends up longer, so a bound that falls
     * out of step with its loops fails every run that generates it.
     * Reserves and checks nothing when reserveBound() rejects the
     * bound, so a huge legal input grows its stream on demand.
     */
    void reserve(CpuId cpu, std::initializer_list<std::size_t> factors,
                 std::size_t extra);

    /** reserve() every CPU's stream for the same bound. */
    void reserveEach(std::initializer_list<std::size_t> factors,
                     std::size_t extra);

    /** Global barrier across every CPU. */
    void barrier();

    /**
     * Seal and return the workload. The builder is then spent.
     * Panics when a reserved stream holds more entries than its
     * reservation allowed, and is fatal when an entry lies outside
     * the allocated address space.
     */
    std::unique_ptr<Workload> finish();

    //--- Topology helpers -----------------------------------------------------
    std::size_t ncpus() const { return p.numCpus(); }
    std::size_t nnodes() const { return p.numNodes; }
    std::size_t cpusPerNode() const { return p.cpusPerNode; }
    NodeId
    nodeOf(CpuId cpu) const
    {
        return static_cast<NodeId>(cpu / p.cpusPerNode);
    }

    const Params &params() const { return p; }
    Rng &rng() { return rng_; }

  private:
    /** First page of node @p n's homeSliced() slice; pages itself
     * for n == nnodes(). */
    std::size_t sliceStart(NodeId n, std::size_t pages) const;

    Params p; // copied: the workload outlives the caller's Params
    AddressSpace as;
    Rng rng_;
    std::unique_ptr<Workload> wl;
    /**
     * Per CPU: the most entries its stream may hold at finish(),
     * End marker included, by its last reservation; SIZE_MAX when
     * unreserved or rejected by reserveBound().
     */
    std::vector<std::size_t> cap;
};

/**
 * Apply the conventional scale factor: max(min, round(v * scale)).
 * Generators use it to shrink inputs for fast unit tests, passing a
 * @p min large enough to keep their iteration structure viable (for
 * example, lu needs a block grid of at least 2x2 to emit any memory
 * references). Fatal on a scale that is not positive and finite,
 * and on a product too large to count.
 */
std::size_t scaled(std::size_t v, double scale, std::size_t min = 1);

} // namespace rnuma

#endif // RNUMA_WORKLOAD_SYNTHETIC_HH
