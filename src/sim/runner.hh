/**
 * @file
 * Run one workload under one system, or under the infinite-block-cache
 * CC-NUMA baseline every figure normalizes to (Figure 6), and the one
 * normalization rule. N-way comparisons are driver::Sweep cells run
 * by driver::SweepRunner (see driver/sweep.hh, Sweep::addComparison).
 */

#ifndef RNUMA_SIM_RUNNER_HH
#define RNUMA_SIM_RUNNER_HH

#include <string>

#include "common/params.hh"
#include "common/stats.hh"
#include "proto/registry.hh"
#include "workload/workload.hh"

namespace rnuma
{

/** Run one system over a workload. */
RunStats runProtocol(const Params &params, const ProtocolSpec &spec,
                     const Workload &wl);

/** Run a registered protocol by name (fatal when unknown). */
RunStats runProtocol(const Params &params, const std::string &name,
                     const Workload &wl);

/** Run the Figure 6 baseline: CC-NUMA with an infinite block cache. */
RunStats runInfiniteBaseline(const Params &params, const Workload &wl);

/**
 * num/den as a normalized execution time. NaN when @p den is zero —
 * a degenerate (e.g. one-reference) workload reports a flagged
 * value the table/JSON sinks render as "nan"/null instead of
 * panicking mid-figure. The single normalization rule shared by
 * the examples and the figure renderers.
 */
double normalizedTime(Tick num, Tick den);

} // namespace rnuma

#endif // RNUMA_SIM_RUNNER_HH
