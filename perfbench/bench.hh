/**
 * @file
 * The benchmark's workloads, cell runner and output check. A workload
 * is a list of cells; a cell is one Machine run, built only from the
 * simulator's public entry points:
 *
 *   makeWorkload -> Machine(Params, ProtocolSpec, Workload&) -> run()
 *
 * Every protocol id, network, directory format and generator option
 * is pinned here, so registering something new in the simulator
 * never changes what a workload measures. See README.md for why each
 * workload exists and which layer it stresses.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/params.hh"
#include "common/stats.hh"

namespace perfbench
{

/** One Machine run. */
struct Cell
{
    std::string name;      ///< unique within the workload
    std::string generator; ///< registered workload id
    std::string options;   ///< pinned generator options
    double scale = 1.0;
    /**
     * The machine the workload is generated for. Cells of one row
     * share it, so every protocol of the row runs the same trace.
     */
    rnuma::Params gen;
    rnuma::Params params;  ///< the machine the cell runs on
    std::string protocol;  ///< registered protocol id
};

/** The benchmark's workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The cells of a workload; empty for an unknown name. */
std::vector<Cell> workloadCells(const std::string &workload);

/** One cell run, with its host time split into its three phases. */
struct CellRun
{
    rnuma::RunStats stats;
    double generateS = 0; ///< makeWorkload
    double constructS = 0; ///< Machine construction
    double runS = 0;       ///< Machine::run
};

/**
 * Generate, construct and run one cell. A traced run wraps the RAD,
 * policy and network (trace.hh) and records a `sim.run` root span
 * stamped with @p cellId.
 */
CellRun runCell(const Cell &cell, std::uint64_t seed, bool traced,
                std::uint32_t cellId = 0);

/** Memory references in the cell's generated workload. */
std::uint64_t generatedRefs(const Cell &cell, std::uint64_t seed);

/** The per-cell counters pinned for the default seed. */
struct Counters
{
    std::uint64_t ticks = 0;
    std::uint64_t events = 0;
    std::uint64_t refs = 0;
    std::uint64_t remoteFetches = 0;
    std::uint64_t relocations = 0;
    std::uint64_t netMessages = 0;

    bool operator==(const Counters &o) const;
};

Counters countersOf(const rnuma::RunStats &s);

/** The seed whose counters are pinned in expected_seed1.tsv. */
constexpr std::uint64_t defaultSeed = 1;

/** Expected counters keyed by "<workload>/<cell>". */
using ExpectedCounters = std::map<std::string, Counters>;

/**
 * Read an expected-counters file (one line per cell: workload, cell,
 * then the six counters, tab-separated). False when unreadable or
 * malformed.
 */
bool readExpected(const std::string &path, ExpectedCounters &out);

/** One line of the expected-counters file. */
std::string expectedLine(const std::string &workload, const Cell &cell,
                         const Counters &c);

/** Everything the output check compares for one cell. */
struct CellEvidence
{
    /** The first untraced pass. */
    rnuma::RunStats first;
    /** Every later pass, traced or not, equalled its own first. */
    bool repeatsIdentical = true;
    /** The first traced pass. */
    rnuma::RunStats traced;
    /** Memory references in the generated workload. */
    std::uint64_t generatedRefs = 0;
    /** Pinned counters; null when the seed has none. */
    const Counters *expected = nullptr;
};

/**
 * The output check: the reasons a cell fails, empty when it passes.
 * A cell fails when its counters differ from the pinned ones, when a
 * repeated or traced pass differs from the first, when the remote
 * fetches do not split into cold + coherence + refetch, or when the
 * run did not issue exactly the generated references.
 */
std::vector<std::string> checkCell(const CellEvidence &e);

/**
 * A fixed loop shaped like the simulator's inner work: lookups and
 * updates in a directory-sized hash table, and pops and pushes on a
 * binary-heap event queue. It is the benchmark's own code, so no
 * change to the simulator moves it. How long one round takes says how
 * fast the host runs such code at that moment: on a shared host, other
 * tenants' cache and memory traffic slows the simulator and this loop
 * alike, for tens of seconds at a time.
 */
class Yardstick
{
  public:
    Yardstick();

    /** Host seconds of one round (a fixed number of steps). */
    double measure();

  private:
    std::unordered_map<std::uint64_t, std::uint32_t> table_;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        queue_;
    std::uint64_t rng_ = 99;
};

/**
 * The round time host times are scaled to: a timed value is reported
 * as (measured time) x yardstickNominalS / (median round time over the
 * run), the time it would take on a host whose round takes this long.
 * Median rounds of 30 s runs on the 4-core Xeon host the benchmark was
 * written on ranged from 0.55 to 1.0 ms.
 */
constexpr double yardstickNominalS = 0.8e-3;

/** Host fingerprint: CPU model, cores, compiler, build type (JSON). */
std::string hostFingerprint();

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Median of a non-empty sample. */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
