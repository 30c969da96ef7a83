/**
 * @file
 * Thread-parallel sweep execution. Cells are trivially independent
 * (each constructs its own Params, Workload, and Machine), so the
 * runner is a plain work-stealing pool: an atomic cursor over the
 * cell list and N worker threads. Results land at the cell's own
 * index, so the output order — and, because the simulator is
 * deterministic, every RunStats bit — is identical at any job count.
 *
 * Cells that declare a Cell::workloadKey are served by the runner's
 * content-addressed workload cache: each distinct key's workload is
 * generated once per run() (concurrently, on the same pool) into an
 * immutable snapshot, and every cell sharing the key replays a
 * SnapshotWorkload view of it. Generators are deterministic, so the
 * per-cell RunStats is bit-identical with the cache on or off; the
 * opt-out (cacheWorkloads(false), the CLI's --no-workload-cache)
 * exists to restore full cell isolation when debugging.
 */

#ifndef RNUMA_DRIVER_SWEEP_RUNNER_HH
#define RNUMA_DRIVER_SWEEP_RUNNER_HH

#include <memory>
#include <mutex>
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
    /** Cells served from an already-generated snapshot. */
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

/**
 * A process-scope content-addressed store of generated workload
 * snapshots, shareable across SweepRunner::run() invocations: attach
 * one via SweepRunner::shareCache() and figures whose cells key the
 * same (app, gen-params, scale, seed) — fig5/fig6/table4's base
 * workloads in `rnuma_sweep all` — generate it once per process
 * instead of once per figure. Thread-safe; also aggregates
 * generated/hit counts across every run it served (the CLI's
 * end-of-run summary line).
 */
class WorkloadCache
{
  public:
    /** Snapshot for @p key; nullptr when not cached. */
    std::shared_ptr<const VectorWorkload>
    find(const std::string &key) const;

    /** Store a snapshot (first writer wins). */
    void insert(const std::string &key,
                std::shared_ptr<const VectorWorkload> snapshot);

    /** Fold one run's counters into the process aggregates. */
    void recordRun(std::size_t generated, std::size_t hits);

    //--- Aggregates over every run served ------------------------------
    std::size_t generated() const;
    std::size_t hits() const;
    /** Distinct snapshots currently held. */
    std::size_t snapshots() const;

  private:
    mutable std::mutex m_;
    std::unordered_map<std::string,
                       std::shared_ptr<const VectorWorkload>>
        map_;
    std::size_t generated_ = 0;
    std::size_t hits_ = 0;
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
     * through RNUMA_FATAL after all workers have drained.
     */
    SweepResult run(const Sweep &sweep) const;

    std::size_t jobs() const { return jobs_; }

    /** Enable/disable the workload cache (default: enabled). */
    SweepRunner &
    cacheWorkloads(bool enable)
    {
        cache_ = enable;
        return *this;
    }
    bool workloadCacheEnabled() const { return cache_; }

    /**
     * Attach a process-scope snapshot store shared across run()
     * invocations (and across runners). Null (the default) keeps
     * every run()'s cache private, exactly the pre-process-cache
     * behavior. Ignored while cacheWorkloads(false).
     */
    SweepRunner &
    shareCache(WorkloadCache *shared)
    {
        shared_ = shared;
        return *this;
    }

  private:
    std::size_t jobs_;
    bool cache_ = true;
    WorkloadCache *shared_ = nullptr;
};

/**
 * Re-run @p sweep serially and assert each cell's RunStats is
 * bit-identical to @p result (the `--verify` mode of the CLI; the
 * driver tests use it across job counts). @p cacheWorkloads selects
 * the reference run's workload-cache mode, so a cache-disabled sweep
 * is verified against a cache-disabled reference.
 */
void verifySerialIdentical(const Sweep &sweep,
                           const SweepResult &result,
                           bool cacheWorkloads = true);

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_SWEEP_RUNNER_HH
