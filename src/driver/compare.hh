/**
 * @file
 * The perf-baseline regression gate: diff two rnuma-sweep-results
 * documents (a stored baseline vs the current run). Simulated
 * per-cell `ticks` and `events` are deterministic, so any drift is a
 * hard failure; host wall time is noisy, so it fails only beyond a
 * percentage tolerance. Consumed by `rnuma_sweep --compare` and the
 * CI perf-gate job (workflow: .github/workflows/ci.yml; workflow
 * docs: docs/PERFORMANCE.md).
 *
 * Also home to the measured-performance ("rnuma-bench/v1") artifact:
 * the `rnuma_bench` harness measures median-of-N events/sec and
 * events/instruction per cell, and compareBench() diffs two such
 * artifacts — exact on the deterministic counters, tolerance-based
 * on the host-measured rates.
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
     *  format, and workload generator ("" for an ad-hoc factory). */
    std::string protocol;
    std::string network;
    std::string directory;
    std::string workload;
    double wallMs = 0;
    /** Every field of the cell's serialized "stats" object, by
     *  field name (see statFields()): "ticks", "events", ... */
    std::map<std::string, std::uint64_t> counters;
};

/** The comparable slice of one serialized figure. */
struct ResultFigure
{
    std::string name;
    double scale = 1.0;
    std::size_t jobs = 1;
    double wallMs = 0;
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
 * the schema found) and on a count field (jobs, a stats counter)
 * that is not a non-negative integer below 2^64 (naming the figure,
 * cell, and field).
 */
ResultDoc loadResults(const std::string &json_text);

/** Build the comparable slice directly from executed figures. */
ResultDoc resultsOf(const std::vector<FigureRun> &runs);

/** Tuning for compareResults. */
struct CompareOptions
{
    /**
     * Allowed per-figure wall-time growth, in percent (e.g. 25 means
     * "fail when >1.25x the baseline"). Negative disables the
     * wall-time check entirely (determinism checks always run).
     */
    double wallTolerancePct = 25.0;
};

/**
 * Diff @p current against @p baseline, writing a per-figure report
 * to @p os. Returns the number of violations:
 *
 * - a figure or cell present in the baseline but missing now, or a
 *   figure whose scale changed (coverage loss / incomparable);
 * - per-cell `ticks`, `events`, `evictions_zero_hit`, or
 *   `evicted_page_hits` drift — exact comparison, any difference
 *   fails (the simulator is deterministic, so drift means behavior
 *   changed without the baseline being re-recorded);
 * - a cell's protocol, network, directory, or workload id changing;
 * - per-figure wall time above baseline by more than the tolerance.
 *
 * Cells/figures only in @p current are reported as new, not
 * counted. Wall-time checks are skipped (with a note) when the job
 * counts differ, since sweep wall time scales with concurrency.
 */
std::size_t compareResults(const ResultDoc &baseline,
                           const ResultDoc &current,
                           const CompareOptions &opt,
                           std::ostream &os);

//--------------------------------------------------------------------------
// Measured-performance (bench) artifacts
//--------------------------------------------------------------------------

/**
 * One cell of an "rnuma-bench/v1" artifact (schema documented in
 * docs/PERFORMANCE.md). The counters — events, ticks, refs — are
 * deterministic simulator outputs and diff exactly; the median
 * events/sec is a host measurement and diffs within a tolerance.
 * events/instruction (events / refs, with refs as the instruction
 * proxy) is derived from the counters and therefore equally
 * noise-immune.
 */
struct BenchCell
{
    std::string app;
    std::string config;
    std::string protocol;
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    std::uint64_t refs = 0;
    double eventsPerInstruction = 0;
    double medianEventsPerSec = 0;
};

/** One figure of a bench artifact. */
struct BenchFigure
{
    std::string name;
    double scale = 1.0;
    std::vector<BenchCell> cells;

    const BenchCell *find(const std::string &app,
                          const std::string &config) const;
};

/** The bench artifact schema writeBench writes and loadBench reads. */
constexpr const char *benchSchema = "rnuma-bench/v1";

/** A parsed (or freshly measured) bench artifact. */
struct BenchDoc
{
    std::size_t runs = 0; ///< medians are over this many runs
    double scale = 1.0;
    std::size_t jobs = 1;
    std::vector<BenchFigure> figures;

    const BenchFigure *find(const std::string &name) const;
};

/**
 * Parse a bench artifact. Throws std::runtime_error on anything but
 * an rnuma-bench/v1 document, and on a count field (runs, jobs,
 * events, ticks, refs) that is not a non-negative integer below
 * 2^64.
 */
BenchDoc loadBench(const std::string &json_text);

/** Serialize a bench artifact as indented benchSchema JSON. */
void writeBench(std::ostream &os, const BenchDoc &doc);

/** Tuning for compareBench. */
struct BenchCompareOptions
{
    /**
     * Allowed median events/sec *drop*, in percent (improvements
     * never fail). Single-digit by default: medians-of-N on a quiet
     * host are repeatable to a few percent. Negative disables the
     * rate check entirely (counters-only mode — what CI uses on
     * shared runners, where host throughput is not comparable
     * between machines).
     */
    double ratePct = 8.0;
};

/**
 * Diff @p current against @p baseline, writing a per-figure report
 * to @p os. Returns the number of violations:
 *
 * - a figure or cell present in the baseline but missing now, or a
 *   figure whose scale changed (coverage loss / incomparable);
 * - per-cell `events`, `ticks`, or `refs` drift — exact comparison
 *   (deterministic counters, so any drift means behavior changed
 *   without the baseline being re-recorded);
 * - per-cell median events/sec below baseline by more than the
 *   tolerance.
 *
 * Differing run counts or job counts are notes, not violations
 * (medians are comparable across N; rates are not compared across
 * differing jobs — the rate check is skipped with a note).
 */
std::size_t compareBench(const BenchDoc &baseline,
                         const BenchDoc &current,
                         const BenchCompareOptions &opt,
                         std::ostream &os);

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_COMPARE_HH
