/**
 * @file
 * Machine- and human-readable emitters for executed sweeps. A
 * FigureRun pairs a figure's identity with its SweepResult; the
 * sinks serialize lists of them. The JSON schema (resultsSchema,
 * documented in docs/PERFORMANCE.md) is the stable artifact format
 * the CI figure pipeline and the perf-baseline gate consume, so a
 * change to it must bump the schema string; the gate reads only the
 * current version.
 */

#ifndef RNUMA_DRIVER_RESULT_SINK_HH
#define RNUMA_DRIVER_RESULT_SINK_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/sweep_runner.hh"

namespace rnuma::driver
{

/** The results schema the JSON sink writes and loadResults reads. */
constexpr const char *resultsSchema = "rnuma-sweep-results/v8";

/** One executed figure: identity plus per-cell results. */
struct FigureRun
{
    std::string name;     ///< CLI name, e.g. "fig6"
    std::string title;
    std::string paperRef;
    double scale = 1.0;   ///< workload scale the sweep ran at
    std::size_t jobs = 1; ///< concurrency it ran with
    double wallMs = 0;    ///< wall-clock for the whole sweep
    int status = 0;       ///< render/verification exit status
    SweepResult result;
};

/** The per-cell counters serialized by the sinks, in order. */
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

/** Abstract emitter over a batch of executed figures. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;
    virtual void write(std::ostream &os,
                       const std::vector<FigureRun> &runs) const = 0;
};

/** The "rnuma-sweep-results/v4" JSON document. */
class JsonSink : public ResultSink
{
  public:
    void write(std::ostream &os,
               const std::vector<FigureRun> &runs) const override;
};

/** One flat CSV row per cell, all figures concatenated. */
class CsvSink : public ResultSink
{
  public:
    void write(std::ostream &os,
               const std::vector<FigureRun> &runs) const override;
};

/** Raw per-cell counter tables (debugging / quick inspection). */
class TableSink : public ResultSink
{
  public:
    void write(std::ostream &os,
               const std::vector<FigureRun> &runs) const override;
};

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_RESULT_SINK_HH
