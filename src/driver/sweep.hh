/**
 * @file
 * The declarative experiment-sweep description. A Sweep is a flat
 * list of Cells, each naming one (workload row, configuration
 * column) point of a paper figure or table: its Params, its
 * protocol, and a factory that builds a fresh Workload. Cells carry
 * everything they need, so the SweepRunner can execute them in any
 * order, concurrently, with no shared mutable state.
 */

#ifndef RNUMA_DRIVER_SWEEP_HH
#define RNUMA_DRIVER_SWEEP_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/params.hh"
#include "proto/registry.hh"
#include "workload/workload.hh"

namespace rnuma::driver
{

/**
 * Builds a fresh workload for one cell. Factories are
 * self-contained: they capture the generation Params (and scale and
 * seed) at sweep-construction time, so cells whose *run* Params vary
 * generation-relevant fields — e.g. Figure 7's block-cache axis,
 * which fmm's generator reads — can still share one identical trace
 * per row by sharing one factory.
 */
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/**
 * A factory for the registered workload @p id (makeWorkload),
 * generating from @p gen at @p scale with @p seed and generator
 * @p options.
 */
WorkloadFactory workloadFactory(std::string id, const Params &gen,
                                double scale, std::uint64_t seed = 1,
                                std::string options = "");

/**
 * Content-address a generated workload: a key equal exactly when the
 * generator inputs — name, every Params field (via
 * Params::fingerprint()), scale, and seed — are equal, so cells with
 * the same key replay bit-identical streams. Used as Cell::workloadKey
 * by the SweepRunner's workload cache; @p name need not be a registry
 * app (the micro patterns and the eq3 adversary key themselves the
 * same way).
 */
std::string workloadCacheKey(const std::string &name,
                             const Params &gen, double scale,
                             std::uint64_t seed = 1);

/**
 * A workload scale: @p text as a positive finite number, or nullopt
 * (junk, trailing characters, zero, negative, NaN or infinity).
 */
std::optional<double> parseScale(const std::string &text);

/**
 * The sweep CLI's default scale: RNUMA_BENCH_SCALE through
 * parseScale(), or 1.0 when unset. A rejected value warns and falls
 * back to 1.0.
 */
double envScale();

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
    WorkloadFactory make;
    /**
     * Content address of the workload `make` generates (see
     * workloadCacheKey). Cells sharing a key generate the workload
     * once per sweep and replay immutable snapshot views of it.
     * Empty means "don't cache": the cell always calls `make`.
     */
    std::string workloadKey;
    /**
     * Stable workload-registry id of the generator behind `make`
     * ("barnes", "zipf-serve", ...), recorded per cell in the JSON
     * artifact (schema v7). Distinct from `app`, which is a figure
     * row label and may carry sweep-axis decoration ("zipf-0.95").
     * Empty means unidentified (an ad-hoc factory).
     */
    std::string workload;
};

/** An ordered collection of cells with identity metadata. */
class Sweep
{
  public:
    explicit Sweep(std::string name, std::string title = "",
                   std::string paper_ref = "");

    /** Append a cell. Fatal on a duplicate (app, config) pair. */
    void add(Cell c);

    /**
     * Append a registry-app cell that also generates its workload
     * from @p p, running the registered protocol named @p proto
     * (fatal when unknown). Convenience for sweeps whose rows do not
     * vary generation-relevant Params across columns; otherwise
     * build one workloadFactory() per row and add() cells sharing
     * it.
     */
    void addApp(const std::string &app, const std::string &config,
                const Params &p, const std::string &proto,
                double scale, std::uint64_t seed = 1);

    /**
     * Append the Figure 6 normalization baseline for @p app: CC-NUMA
     * with an infinite block cache, under config name "baseline".
     * The workload is generated from @p p itself (the finite
     * machine), like addApp.
     */
    void addBaseline(const std::string &app, const Params &p,
                     double scale, std::uint64_t seed = 1);

    /**
     * Append one comparison row: the infinite-block-cache CC-NUMA
     * baseline (config "baseline") plus one cell per registered
     * protocol in @p specIds (config = its canonical id). Every cell
     * runs under @p gen, the baseline with an infinite block cache,
     * on the workload @p make generates, keyed @p key and recorded
     * as registry workload @p workload.
     */
    void addComparison(const std::string &row, const Params &gen,
                       const WorkloadFactory &make,
                       const std::string &key,
                       const std::string &workload,
                       const std::vector<std::string> &specIds);

    const std::string &name() const { return name_; }
    const std::string &title() const { return title_; }
    const std::string &paperRef() const { return paper_ref_; }
    const std::vector<Cell> &cells() const { return cells_; }
    bool empty() const { return cells_.empty(); }
    std::size_t size() const { return cells_.size(); }

  private:
    std::string name_;
    std::string title_;
    std::string paper_ref_;
    std::vector<Cell> cells_;
};

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_SWEEP_HH
