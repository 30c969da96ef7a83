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
    /**
     * Canonical protocol id, already passed through
     * canonicalProtocolId(): enum-era labels in v1/v2 baselines
     * ("CC-NUMA") read back as the stable id ("ccnuma"). Empty when
     * the document carried none.
     */
    std::string protocol;
    /**
     * Canonical network-model id. Pre-v5 documents carried none;
     * their cells default to "constant" (the only interconnect that
     * existed), so v1-v4 baselines stay comparable.
     */
    std::string network = "constant";
    /**
     * Canonical directory-format id; pre-v5 cells default to
     * "full-map" for the same reason.
     */
    std::string directory = "full-map";
    /**
     * Canonical workload-registry id of the cell's generator
     * ("barnes", "zipf-serve", ...). Pre-v7 documents carried none;
     * their cells default to "" (unknown), and the gate reports a
     * workload mismatch against them as a note, not a violation.
     */
    std::string workload;
    std::uint64_t ticks = 0;
    /** Scheduler events; hasEvents false for v1 baselines. */
    std::uint64_t events = 0;
    bool hasEvents = false;
    double wallMs = 0;
    /**
     * Every numeric field of the cell's serialized "stats" object,
     * by field name. Empty for v1 baselines (which carried no stats).
     */
    std::map<std::string, std::uint64_t> counters;
};

/** The comparable slice of one serialized figure. */
struct ResultFigure
{
    std::string name;
    double scale = 1.0;
    std::size_t jobs = 1;
    double wallMs = 0;
    /**
     * The v4 per-figure "protocols" array (distinct canonical spec
     * ids, first-appearance order); reconstructed from the cells for
     * pre-v4 documents, so consumers can rely on it regardless of
     * the baseline's age.
     */
    std::vector<std::string> protocols;
    std::vector<ResultCell> cells;

    const ResultCell *find(const std::string &app,
                           const std::string &config) const;
};

/** A parsed results document (any schema version). */
struct ResultDoc
{
    std::string schema;
    std::vector<ResultFigure> figures;

    const ResultFigure *find(const std::string &name) const;

    /** Numeric schema version (the N of rnuma-sweep-results/vN). */
    int version() const;
};

/**
 * Extract the comparable slice from a parsed rnuma-sweep-results
 * document (v1 through v7). Throws std::runtime_error on documents
 * that are not sweep results at all.
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
 * - a figure or cell present in the baseline but missing now
 *   (coverage loss);
 * - per-cell `ticks` or `events` drift — exact comparison, any
 *   difference fails (the simulator is deterministic, so drift means
 *   behavior changed without the baseline being re-recorded);
 * - a cell's canonical protocol id changing, when BOTH documents are
 *   v3 or newer (pre-v3 baselines carry enum-era labels that cannot
 *   distinguish policy variants — e.g. fig8's per-threshold specs
 *   all serialized as "R-NUMA" — so against those the id change is a
 *   note, not a violation: the string-mapping shim that keeps the
 *   first post-registry PR from false-failing on an old artifact);
 * - per-figure wall time above baseline by more than the tolerance.
 *
 * Figures whose scale differs from the baseline's are a violation
 * (the comparison would be meaningless). Cells/figures only in
 * @p current are reported as new, not counted. Wall-time checks are
 * skipped (with a note) when the job counts differ, since sweep wall
 * time scales with concurrency.
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

/** A parsed (or freshly measured) bench artifact. */
struct BenchDoc
{
    std::string schema;
    std::size_t runs = 0; ///< medians are over this many runs
    double scale = 1.0;
    std::size_t jobs = 1;
    std::vector<BenchFigure> figures;

    const BenchFigure *find(const std::string &name) const;
};

/**
 * Parse a bench artifact. Throws std::runtime_error on documents
 * that are not rnuma-bench at all.
 */
BenchDoc loadBench(const std::string &json_text);

/** Serialize a bench artifact as indented rnuma-bench/v1 JSON. */
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
