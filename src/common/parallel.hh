/**
 * @file
 * The one worker pool in the codebase: run n independent index-tasks
 * on up to a requested number of threads. Used only by the sweep
 * driver (workload generation and cells), which owes its
 * bit-identical parallelism to the tasks writing disjoint,
 * caller-owned slots.
 */

#ifndef RNUMA_COMMON_PARALLEL_HH
#define RNUMA_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace rnuma
{

/**
 * Invoke fn(0) ... fn(n-1), each exactly once, on up to @p jobs
 * worker threads (0 means hardware concurrency; <= 1 runs inline on
 * the calling thread, spawning nothing). Tasks must be independent:
 * they may only write state no other task reads.
 *
 * A task failure on a worker thread is captured (panics and fatals
 * included — workers install ScopedPanicToException, since exiting
 * from a worker would run static destructors under the feet of live
 * siblings), the pool drains, and the first error is re-reported
 * from the calling thread via RNUMA_FATAL.
 */
void parallelFor(std::size_t n, std::size_t jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace rnuma

#endif // RNUMA_COMMON_PARALLEL_HH
