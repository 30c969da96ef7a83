/**
 * @file
 * Commercial-serving workload generators: the traffic class the
 * paper's introduction motivates R-NUMA with (Verghese et al.'s
 * finding that 90% of database user-data misses hit read-write
 * shared pages), which the SPLASH-2 signatures do not cover.
 *
 * Each generator takes the machine geometry, the conventional input
 * scale, a seed, and a "key=value,..." option string (parsed with
 * WorkloadOptions; "" selects every default). All three build their
 * streams through StreamBuilder, so every emitted address passes the
 * finish()-time allocation audit before the workload is usable.
 */

#ifndef RNUMA_WORKLOAD_SERVING_HH
#define RNUMA_WORKLOAD_SERVING_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/params.hh"
#include "workload/workload.hh"

namespace rnuma
{

/**
 * Zipf-skewed page service: a pool of pages homed round-robin across
 * the nodes, hit with popularity weight 1/rank^theta. Every CPU is a
 * server thread issuing read-mostly requests (a write fraction
 * models in-place updates) plus per-request private session-state
 * writes. Skew theta is the figure-sweep axis: at high skew the hot
 * head rewards relocation/replication; at low skew the uniform tail
 * behaves like capacity traffic.
 *
 * Options: pages, theta, write (fraction), requests (per cpu).
 */
std::unique_ptr<Workload>
makeZipfServe(const Params &p, double scale, std::uint64_t seed,
              const std::string &options = "");

/**
 * Diurnal phase rotation: the active working set is a page-cache-
 * sized window that rotates over a pool ~3x the frame budget. Every
 * CPU sweeps the current window, then a global barrier marks the
 * phase boundary and the window advances by pool/phases pages.
 * Pages relocated during one phase fall cold in the next, so the
 * relocation-vs-eviction churn policies must amortize is structural,
 * not incidental.
 *
 * Options: pages, phases, sweeps.
 */
std::unique_ptr<Workload>
makePhaseShift(const Params &p, double scale, std::uint64_t seed,
               const std::string &options = "");

/**
 * The OLTP-ish database mix formerly private to
 * examples/database_scan.cc: a read-mostly shared buffer pool with a
 * hot subset, a latch page hammered read-write by every node, and
 * per-CPU scratch. Seed 0xdb with default options reproduces the
 * example's historical stream exactly.
 *
 * Options: transactions, pool (pages), rows (per txn), hot (pages).
 */
std::unique_ptr<Workload>
makeDatabaseScan(const Params &p, double scale, std::uint64_t seed,
                 const std::string &options = "");

} // namespace rnuma

#endif // RNUMA_WORKLOAD_SERVING_HH
