/**
 * @file
 * StreamBuilder: the shared toolkit the application generators use to
 * assemble per-CPU reference streams — allocation, init-touch
 * placement, reads/writes with think time, and barriers.
 *
 * The generators substitute for the paper's execution-driven SPLASH-2
 * runs (DESIGN.md section 5): each reproduces its application's
 * sharing signature (remote working-set size, reuse vs communication
 * pages, read-write fraction, spatial density, iteration structure)
 * at the scaled Table 3 input sizes.
 */

#ifndef RNUMA_WORKLOAD_SYNTHETIC_HH
#define RNUMA_WORKLOAD_SYNTHETIC_HH

#include <memory>
#include <string>

#include "common/params.hh"
#include "common/rng.hh"
#include "workload/address_space.hh"
#include "workload/workload.hh"

namespace rnuma
{

/** Builder for VectorWorkload streams. */
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
    /** Placement-only first touch of the page holding @p a. */
    void touch(CpuId cpu, Addr a);

    /** First-touch every page of [base, base+bytes). */
    void touchRange(CpuId cpu, Addr base, std::size_t bytes);

    void read(CpuId cpu, Addr a, std::uint32_t think = defaultThink);
    void write(CpuId cpu, Addr a, std::uint32_t think = defaultThink);

    /** Global barrier across every CPU. */
    void barrier();

    /** Seal and return the workload. The builder is then spent. */
    std::unique_ptr<VectorWorkload> finish();

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
    Params p; // copied: the workload outlives the caller's Params
    AddressSpace as;
    Rng rng_;
    std::unique_ptr<VectorWorkload> wl;
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
