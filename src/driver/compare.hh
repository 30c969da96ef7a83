/**
 * @file
 * The counter gate: diff two rnuma-sweep-results documents (a
 * committed baseline vs the current run). Every serialized per-cell
 * counter is a deterministic simulator output, so any drift is a
 * hard failure. Consumed by `rnuma_sweep --compare` and the CI
 * figure pipeline, which gates against baseline/figures-s0.1.json
 * (workflow: .github/workflows/ci.yml; workflow docs:
 * docs/PERFORMANCE.md).
 */

#ifndef RNUMA_DRIVER_COMPARE_HH
#define RNUMA_DRIVER_COMPARE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "driver/result_sink.hh"

namespace rnuma::driver
{

/** The comparable slice of one serialized cell. */
struct ResultCell
{
    std::string app;
    std::string config;
    /** Registry ids of the cell's protocol, interconnect, directory
     *  format, and workload generator. */
    std::string protocol;
    std::string network;
    std::string directory;
    std::string workload;
    /** Every field of the cell's serialized "stats" object, by
     *  field name (see statFields()): "ticks", "events", ... */
    std::map<std::string, std::uint64_t> counters;
};

/** The comparable slice of one serialized figure. */
struct ResultFigure
{
    std::string name;
    double scale = 1.0;
    std::vector<ResultCell> cells;

    const ResultCell *find(const std::string &app,
                           const std::string &config) const;
};

/** A parsed results document (always resultsSchema). */
struct ResultDoc
{
    std::vector<ResultFigure> figures;

    const ResultFigure *find(const std::string &name) const;
};

/**
 * Extract the comparable slice from a serialized results document.
 * Throws std::runtime_error on anything but resultsSchema (naming
 * the schema found) and on a stats counter that is not a
 * non-negative integer below 2^64 (naming the figure, cell, and
 * field).
 */
ResultDoc loadResults(const std::string &json_text);

/**
 * Diff @p current against @p baseline, writing a per-figure report
 * to @p os. Returns the number of violations:
 *
 * - a figure or cell present in the baseline but missing now, or a
 *   figure whose scale changed (coverage loss / incomparable);
 * - any per-cell counter drift, over the union of both sides' stats
 *   keys — exact comparison (the simulator is deterministic, so
 *   drift means behavior changed without the baseline being
 *   re-recorded); a key present on one side only is a violation
 *   naming it;
 * - a cell's protocol, network, directory, or workload id changing.
 *
 * Cells/figures only in @p current are reported as new, not
 * counted.
 */
std::size_t compareResults(const ResultDoc &baseline,
                           const ResultDoc &current, std::ostream &os);

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_COMPARE_HH
