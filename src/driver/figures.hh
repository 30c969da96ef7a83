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

/** One figure/table: identity, lazy sweep builder, table renderer. */
struct FigureSpec
{
    const char *name;     ///< CLI name, e.g. "fig6"
    const char *title;
    const char *paperRef;

    /** Build the cell list at a workload scale (cheap; lazy). */
    Sweep (*build)(double scale);

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
 * (Zipf-skew x protocols x machines), and "storm-cliff" (the fmm
 * 4-frame relocation-storm regression guard).
 */
const std::vector<FigureSpec> &figureSpecs();

/** Look a figure up by CLI name; nullptr when unknown. */
const FigureSpec *findFigure(const std::string &name);

/**
 * Build and execute one figure's sweep at workload @p scale on
 * @p runner, whose workload cache serves every figure run on it.
 * With @p verify set and more than one worker, re-runs the sweep serially and asserts every
 * cell's RunStats is bit-identical (catching any cross-cell state
 * leakage that threading would expose); a serial run is itself the
 * reference, so verify is a no-op there.
 */
FigureRun runFigure(const FigureSpec &spec, double scale,
                    SweepRunner &runner, bool verify);

/** Render @p run with its spec's renderer, recording the status. */
int renderFigure(const FigureSpec &spec, FigureRun &run,
                 std::ostream &os);

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_FIGURES_HH
