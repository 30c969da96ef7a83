/**
 * @file
 * The registry of paper figures and tables as declarative sweep
 * specs. Each spec knows how to build its Sweep (lazily — no
 * workloads are generated until the runner executes cells) and how
 * to render the executed sweep as the figure's human-readable table
 * with the paper commentary. The rnuma_sweep CLI is the shell over
 * this registry. Comparison figures build their rows with
 * Sweep::addComparison and read them back through SweepResult::norm
 * and SweepResult::bestOfBase.
 */

#ifndef RNUMA_DRIVER_FIGURES_HH
#define RNUMA_DRIVER_FIGURES_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/result_sink.hh"
#include "driver/sweep.hh"

namespace rnuma::driver
{

/**
 * Inputs a figure's sweep is built from; converts implicitly from a
 * bare scale (`build({0.1})`) for the common case.
 */
struct FigureOptions
{
    FigureOptions() = default;
    FigureOptions(double s) : scale(s) {}
    FigureOptions(double s, std::vector<std::string> protos)
        : scale(s), protocols(std::move(protos))
    {
    }

    /** Workload input scale. */
    double scale = 1.0;
    /**
     * Registry protocol names for protocol-parametric figures (the
     * "policies" sweep; the CLI's repeatable --protocol flag).
     * Empty means the figure's default selection — every registered
     * protocol for "policies". Figures with a fixed system set
     * (fig5-9, the tables) ignore it.
     */
    std::vector<std::string> protocols;
    /**
     * Registry network-model names for network-parametric figures
     * (the "scaling" sweep; the CLI's repeatable --network flag).
     * Empty means the figure's default selection ({"constant",
     * "mesh-2d"} for "scaling"). Figures pinned to the paper's
     * constant network ignore it.
     */
    std::vector<std::string> networks;
    /**
     * Workload-registry ids for workload-parametric figures (the
     * "churn" sweep; the CLI's repeatable --workload flag). Empty
     * means the figure's default selection ({"phase-shift",
     * "tenants"} for "churn"). Figures with a fixed workload set
     * ignore it.
     */
    std::vector<std::string> workloads;
};

/** One figure/table: identity, lazy sweep builder, table renderer. */
struct FigureSpec
{
    const char *name;     ///< CLI name, e.g. "fig6"
    const char *title;
    const char *paperRef;

    /** Build the cell list from the options (cheap; lazy). */
    Sweep (*build)(const FigureOptions &opt);

    /**
     * Print the figure's table and commentary from the executed
     * sweep. Returns a process exit status (Table 2 uses it for its
     * PASS/MISMATCH cost verification).
     */
    int (*render)(const FigureRun &run, std::ostream &os);
};

/**
 * All figures, in paper order — fig5-9, table2/4, eq3, ablation,
 * micro — plus the registry-driven sweeps: "policies" (relocation
 * policies), "scaling" (nodes x networks x directories), "serving"
 * (Zipf-skew x protocols x machines), "churn" (workload-parametric
 * phase-shift/tenants x policies), and "storm-cliff" (the fmm
 * 4-frame relocation-storm regression guard).
 */
const std::vector<FigureSpec> &figureSpecs();

/** Look a figure up by CLI name; nullptr when unknown. */
const FigureSpec *findFigure(const std::string &name);

/**
 * Build and execute one figure's sweep with @p jobs worker threads.
 * With @p verify set and more than one worker, re-runs the sweep
 * serially and asserts every cell's RunStats is bit-identical
 * (catching any cross-cell state leakage that threading would
 * expose); a serial run is itself the reference, so verify is a
 * no-op there. @p cacheWorkloads toggles the runner's
 * content-addressed workload cache (the CLI's --no-workload-cache
 * passes false); @p sharedCache optionally attaches a process-scope
 * WorkloadCache so workloads generate once across figures.
 */
FigureRun runFigure(const FigureSpec &spec, const FigureOptions &opt,
                    std::size_t jobs, bool verify,
                    bool cacheWorkloads = true,
                    WorkloadCache *sharedCache = nullptr);

/** Render @p run with its spec's renderer, recording the status. */
int renderFigure(const FigureSpec &spec, FigureRun &run,
                 std::ostream &os);

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_FIGURES_HH
