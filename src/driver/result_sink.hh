/**
 * @file
 * Machine-readable emitters for executed sweeps. A FigureRun pairs
 * a figure's identity with its SweepResult; writeJson() serializes
 * lists of them. The JSON schema
 * (resultsSchema, documented in docs/PERFORMANCE.md) is the stable
 * artifact format the CI figure pipeline and the counter gate
 * (`rnuma_sweep --compare`) consume, so a change to it must bump the
 * schema string; the gate reads only the current version.
 */

#ifndef RNUMA_DRIVER_RESULT_SINK_HH
#define RNUMA_DRIVER_RESULT_SINK_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/sweep_runner.hh"

namespace rnuma::driver
{

/** The results schema writeJson() writes and loadResults reads. */
constexpr const char *resultsSchema = "rnuma-sweep-results/v9";

/** One executed figure: identity plus per-cell results. */
struct FigureRun
{
    std::string name;     ///< CLI name, e.g. "fig6"
    std::string title;
    std::string paperRef;
    double scale = 1.0;   ///< workload scale the sweep ran at
    std::size_t jobs = 1; ///< concurrency it ran with (console only)
    double wallMs = 0;    ///< sweep wall-clock (console only)
    int status = 0;       ///< render/verification exit status
    SweepResult result;
};

/** The per-cell counters writeJson() serializes, in order. */
struct StatField
{
    const char *name;
    std::uint64_t (*get)(const RunStats &);
};
const std::vector<StatField> &statFields();

/**
 * The distinct protocol ids a sweep's cells ran, in first-appearance
 * order — the figure-level "protocols" array of the results schema.
 */
std::vector<std::string> protocolsOf(const SweepResult &result);

/**
 * Write @p runs as the resultsSchema JSON document. It carries no
 * host timings, so the same figures at the same scale serialize to
 * the same bytes at any job count.
 */
void writeJson(std::ostream &os, const std::vector<FigureRun> &runs);

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_RESULT_SINK_HH
