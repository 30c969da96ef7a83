/**
 * @file
 * Thread-parallel sweep execution. Cells are trivially independent
 * (each constructs its own Params, Workload, and Machine), so the
 * runner is a plain work-stealing pool: an atomic cursor over the
 * cell list and N worker threads. Results land at the cell's own
 * index, so the output order — and, because the simulator is
 * deterministic, every RunStats bit — is identical at any job count.
 *
 * The runner owns one content-addressed workload cache for its
 * lifetime: each distinct WorkloadInput::key() is generated once
 * (concurrently, on the same pool) into an immutable Workload, and
 * every cell naming that input — in this run() or a later one —
 * runs a Machine over it; each Machine keeps its own cursors, so
 * concurrent cells share the streams read-only.
 */

#ifndef RNUMA_DRIVER_SWEEP_RUNNER_HH
#define RNUMA_DRIVER_SWEEP_RUNNER_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "driver/sweep.hh"

namespace rnuma::driver
{

/** The outcome of one cell: its labels plus the full RunStats. */
struct CellResult
{
    std::string app;
    std::string config;
    std::string protocol;     ///< stable spec id ("ccnuma", ...)
    std::string protocolName; ///< display name ("CC-NUMA", ...)
    std::string network;      ///< network model id ("constant", ...)
    std::string directory;    ///< directory format id ("full-map", ...)
    std::string workload;     ///< workload registry id ("barnes", ...)
    RunStats stats;
};

/** All cell results of one sweep, in cell order. */
struct SweepResult
{
    std::vector<CellResult> cells;

    //--- Workload-cache accounting (whole sweep) -----------------------
    /** Distinct workloads actually generated. */
    std::size_t workloadsGenerated = 0;
    /** Cells served from an already-generated workload. */
    std::size_t workloadCacheHits = 0;

    /** Find a cell by labels; nullptr when absent. */
    const CellResult *find(const std::string &app,
                           const std::string &config) const;

    /** Find a cell by labels; fatal when absent. */
    const CellResult &at(const std::string &app,
                         const std::string &config) const;

    /**
     * Ticks of (app, config) normalized to (app, base) — by default
     * the infinite-block-cache baseline (normalizedTime: NaN when the
     * base simulated zero ticks). Fatal when either cell is absent.
     */
    double norm(const std::string &app, const std::string &config,
                const std::string &base = "baseline") const;

    /**
     * The paper's yardstick for @p app: the better of the normalized
     * "ccnuma" and "scoma" cells, "the best of the two base
     * protocols".
     */
    double bestOfBase(const std::string &app) const;
};

/** Executes sweeps with a fixed concurrency level. */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 means hardware concurrency. */
    explicit SweepRunner(std::size_t jobs = 1);

    /**
     * Run every cell and return results in cell order. A cell that
     * fails (for example, an unknown application name reaching the
     * registry) aborts the whole sweep: the first error is reported
     * through RNUMA_FATAL after all workers have drained, and the
     * cache is left as it was.
     */
    SweepResult run(const Sweep &sweep);

    std::size_t jobs() const { return jobs_; }

    //--- Workload-cache totals over every run() ------------------------
    std::size_t workloadsGenerated() const { return generated_; }
    std::size_t workloadCacheHits() const { return hits_; }

  private:
    std::size_t jobs_;
    std::unordered_map<std::string,
                       std::shared_ptr<const Workload>>
        cache_;
    std::size_t generated_ = 0;
    std::size_t hits_ = 0;
};

/**
 * Re-run @p sweep serially on a fresh runner, so every workload is
 * regenerated, and assert each cell's RunStats is bit-identical to
 * @p result (the `--verify` mode of the CLI; the driver tests use it
 * across job counts).
 */
void verifySerialIdentical(const Sweep &sweep,
                           const SweepResult &result);

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_SWEEP_RUNNER_HH
