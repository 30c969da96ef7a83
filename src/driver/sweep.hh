/**
 * @file
 * The declarative experiment-sweep description. A Sweep is a flat
 * list of Cells, each naming one (workload row, configuration
 * column) point of a paper figure or table: its Params, its
 * protocol, and the workload it replays, by value. Cells carry
 * everything they need, so the SweepRunner can execute them in any
 * order, concurrently, with no shared mutable state.
 */

#ifndef RNUMA_DRIVER_SWEEP_HH
#define RNUMA_DRIVER_SWEEP_HH

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/params.hh"
#include "proto/registry.hh"
#include "workload/workload.hh"

namespace rnuma::driver
{

/**
 * A cell's workload, by value: the registered generator @p id run
 * from the generation Params @p gen at @p scale with @p seed and
 * generator @p options. Generators are deterministic, so equal
 * inputs replay bit-identical streams. The generation Params are
 * separate from the cell's run Params, so cells whose run Params
 * vary generation-relevant fields — e.g. Figure 7's block-cache
 * axis, which fmm's generator reads — still share one trace per row
 * by sharing one input.
 */
struct WorkloadInput
{
    WorkloadInput(std::string id, const Params &gen, double scale,
                  std::uint64_t seed = 1, std::string options = "");

    std::string id; ///< workload registry id ("barnes", "zipf-serve")
    Params gen;
    double scale;
    std::uint64_t seed;
    std::string options;

    /**
     * The content address: equal exactly when all five fields are
     * equal (Params through Params::fingerprint(), scale bit-exactly).
     * The SweepRunner generates each distinct key once.
     */
    std::string key() const;

    /** Generate the workload (makeWorkload). */
    std::unique_ptr<Workload> make() const;
};

/**
 * A workload scale: @p text as a positive finite number, or nullopt
 * (junk, trailing characters, zero, negative, NaN or infinity).
 */
std::optional<double> parseScale(const std::string &text);

/**
 * A count (a job count, pages, transactions): @p text as a
 * non-negative decimal integer that fits a long, or nullopt (junk,
 * trailing characters, a negative number or overflow).
 */
std::optional<std::size_t> parseCount(const std::string &text);

/** One independently runnable experiment point. */
struct Cell
{
    std::string app;    ///< row label (application / pattern name)
    std::string config; ///< column label, unique per app in a sweep
    /**
     * The system this cell runs, by value: usually a copy of a
     * registry entry (protocolSpec("rnuma")), but ad-hoc variants —
     * Figure 8's staticThresholdSpec(T) cells — need no global
     * registration. spec.id is what the JSON artifact records.
     */
    ProtocolSpec proto;
    Params params;      ///< the configuration the cell *runs* under
    /**
     * The workload the cell replays. Its registry id is recorded per
     * cell in the JSON artifact, distinct from `app`, which is a
     * figure row label and may carry sweep-axis decoration
     * ("zipf-0.95").
     */
    WorkloadInput workload;
};

/** An ordered, named collection of cells. */
class Sweep
{
  public:
    explicit Sweep(std::string name) : name_(std::move(name)) {}

    /** Append a cell. Fatal on a duplicate (app, config) pair. */
    void add(Cell c);

    /**
     * Append a registry-app cell that also generates its workload
     * from @p p, running the registered protocol named @p proto
     * (fatal when unknown). Convenience for sweeps whose rows do not
     * vary generation-relevant Params across columns; otherwise
     * build one WorkloadInput per row and add() cells sharing it.
     */
    void addApp(const std::string &app, const std::string &config,
                const Params &p, const std::string &proto,
                double scale, std::uint64_t seed = 1);

    /**
     * Append one comparison row: the Figure 6 normalization baseline,
     * CC-NUMA with an infinite block cache (config "baseline"), plus
     * one cell per registered protocol in @p specIds (config = its
     * canonical id). Every cell runs under @p p, the baseline with an
     * infinite block cache, on @p workload.
     */
    void addComparison(const std::string &row, const Params &p,
                       const WorkloadInput &workload,
                       const std::vector<std::string> &specIds);

    const std::string &name() const { return name_; }
    const std::vector<Cell> &cells() const { return cells_; }
    bool empty() const { return cells_.empty(); }
    std::size_t size() const { return cells_.size(); }

  private:
    std::string name_;
    std::vector<Cell> cells_;
};

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_SWEEP_HH
