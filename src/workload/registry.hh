/**
 * @file
 * The workload registry: string-keyed, composable reference-stream
 * generators in the one Registry<Spec> mechanism
 * (common/registry.hh). A WorkloadSpec captures a
 * stable id (the JSON/compare/CLI currency), a display name, and a
 * factory from (Params, scale, seed, option string) to a Workload.
 *
 * The built-ins cover three categories:
 *  - "app": the ten Table 3 application generators (barnes ...
 *    raytrace), in the paper's order;
 *  - "micro": the analyzable microbenchmark patterns (private-loop,
 *    hot-reuse, evict-storm, producer-consumer, adversary,
 *    rw-sharing, scaling-shift);
 *  - "serving": the commercial-serving generators the paper's
 *    Section 1 motivation describes (zipf-serve, phase-shift,
 *    tenants, database-scan).
 *
 * New generators are one registration away and immediately
 * selectable from the rnuma_sweep CLI (--workload,
 * --list-workloads) and sweepable by the workload-parametric
 * figures (the "churn" sweep).
 */

#ifndef RNUMA_WORKLOAD_REGISTRY_HH
#define RNUMA_WORKLOAD_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/params.hh"
#include "common/registry.hh"
#include "common/table.hh"
#include "workload/workload.hh"

namespace rnuma
{

/**
 * Parsed "key=value,key=value" generator options (the WorkloadSpec
 * factory's fourth argument). Typed getters record which keys were
 * consumed; finish() is fatal on any leftover, so a misspelled
 * option fails loudly instead of silently running the default.
 */
class WorkloadOptions
{
  public:
    /** Parse @p text ("" = no options). Fatal on malformed pairs. */
    static WorkloadOptions parse(const std::string &text);

    std::size_t getSize(const std::string &key,
                        std::size_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /** Fatal on unconsumed (unknown) keys. Call once, when done. */
    void finish(const std::string &workload) const;

  private:
    struct Pair
    {
        std::string key;
        std::string value;
        mutable bool consumed = false;
    };
    const Pair *find(const std::string &key) const;

    std::vector<Pair> pairs_;
};

/**
 * Builds a workload from the machine geometry, the input scale, the
 * generator seed, and a generator-specific option string (see
 * WorkloadOptions; "" selects every default).
 */
using WorkloadMakeFn = std::function<std::unique_ptr<Workload>(
    const Params &, double, std::uint64_t, const std::string &)>;

/** One selectable workload generator. Value-semantic, like
 * ProtocolSpec: cells copy the id they run under. */
struct WorkloadSpec
{
    /**
     * Stable machine-readable id: the JSON artifact / compare-gate /
     * CLI currency ("barnes", "zipf-serve", ...). Lowercase, no
     * spaces.
     */
    std::string id;
    /** Human-readable name for tables and logs ("Zipf serving"). */
    std::string displayName;
    /** One-line description for --list-workloads. */
    std::string description;
    /** Table 3 "Input Data Set"-style default-input description. */
    std::string input;
    /** Category: "app", "micro", or "serving". */
    std::string category;
    /** Required: builds the workload. */
    WorkloadMakeFn make;

    bool valid() const { return !id.empty() && make != nullptr; }

    static constexpr const char *kind = "workload";
};

/** The generator table; see common/registry.hh. */
using WorkloadRegistry = Registry<WorkloadSpec>;

/** Registers the Table 3 apps, the micros, and the serving
 *  generators, in that order. */
void addBuiltins(WorkloadRegistry &reg);

/** The workload registry as a table (id, name, category, input,
 *  description): what --list-workloads prints. */
Table workloadTable();

/** Shorthand for WorkloadRegistry::global().at(name). */
const WorkloadSpec &workloadSpec(const std::string &name);

/** Shorthand for WorkloadRegistry::global().find(name). */
const WorkloadSpec *findWorkloadSpec(const std::string &name);

/**
 * Ids of the registered workloads in @p category, in registration
 * order: "app" lists the ten Table 3 applications in the paper's
 * (alphabetical) order, the row list of every application figure.
 */
std::vector<std::string> workloadIds(const std::string &category);

/**
 * Build a registered workload by name. Fatal on unknown names or
 * (via the generator's WorkloadOptions::finish) unknown options.
 * Asserts the product emits at least one memory reference when it is
 * materialized (a VectorWorkload): a workload with zero loads and
 * stores would silently turn every figure cell into a no-op.
 */
std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Params &p,
             double scale = 1.0, std::uint64_t seed = 1,
             const std::string &options = "");

} // namespace rnuma

#endif // RNUMA_WORKLOAD_REGISTRY_HH
