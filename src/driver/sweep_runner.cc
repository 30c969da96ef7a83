#include "driver/sweep_runner.hh"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/runner.hh"

namespace rnuma::driver
{

const CellResult *
SweepResult::find(const std::string &app,
                  const std::string &config) const
{
    for (const CellResult &c : cells)
        if (c.app == app && c.config == config)
            return &c;
    return nullptr;
}

const CellResult &
SweepResult::at(const std::string &app,
                const std::string &config) const
{
    const CellResult *c = find(app, config);
    if (!c)
        RNUMA_FATAL("no cell (", app, ", ", config,
                    ") in sweep result");
    return *c;
}

double
SweepResult::norm(const std::string &app, const std::string &config,
                  const std::string &base) const
{
    return normalizedTime(at(app, config).stats.ticks,
                          at(app, base).stats.ticks);
}

double
SweepResult::bestOfBase(const std::string &app) const
{
    return std::min(norm(app, "ccnuma"), norm(app, "scoma"));
}

SweepRunner::SweepRunner(std::size_t jobs) : jobs_(jobs)
{
    if (jobs_ == 0) {
        jobs_ = std::thread::hardware_concurrency();
        if (jobs_ == 0)
            jobs_ = 1;
    }
}

namespace
{

CellResult
runCell(const Cell &cell, const Workload &wl)
{
    CellResult r;
    r.app = cell.app;
    r.config = cell.config;
    r.protocol = cell.proto.id;
    r.protocolName = cell.proto.displayName;
    r.network = cell.params.networkModel;
    r.directory = cell.params.directoryId();
    r.workload = cell.workload.id;
    r.stats = runProtocol(cell.params, cell.proto, wl);
    return r;
}

} // namespace

SweepResult
SweepRunner::run(const Sweep &sweep)
{
    const std::vector<Cell> &cells = sweep.cells();

    // Phase 1: generate each distinct key not yet cached, once,
    // concurrently. Each task writes only its own slot; the slots
    // join the cache after the pool drains, so a failed generation
    // leaves the cache untouched.
    std::vector<std::string> keys(cells.size());
    std::vector<std::size_t> todo; // first cell of each uncached key
    std::unordered_set<std::string> pending;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        keys[i] = cells[i].workload.key();
        if (!cache_.count(keys[i]) && pending.insert(keys[i]).second)
            todo.push_back(i);
    }
    std::vector<std::shared_ptr<const Workload>> fresh(todo.size());
    parallelFor(todo.size(), jobs_, [&](std::size_t i) {
        fresh[i] = cells[todo[i]].workload.make();
    });
    for (std::size_t i = 0; i < todo.size(); ++i)
        cache_.emplace(keys[todo[i]], std::move(fresh[i]));

    SweepResult result;
    result.workloadsGenerated = todo.size();
    result.workloadCacheHits = cells.size() - todo.size();
    generated_ += result.workloadsGenerated;
    hits_ += result.workloadCacheHits;

    // Phase 2: run every cell; the cache is read-only here. Each task
    // writes only its own slot, so results land in cell order and the
    // per-cell stats are bit-identical at any job count; parallelFor
    // reports a failed cell from this thread.
    result.cells.resize(cells.size());
    parallelFor(cells.size(), jobs_, [&](std::size_t i) {
        result.cells[i] = runCell(cells[i], *cache_.at(keys[i]));
    });
    return result;
}

void
verifySerialIdentical(const Sweep &sweep, const SweepResult &result)
{
    SweepResult serial = SweepRunner(1).run(sweep);
    RNUMA_ASSERT(serial.cells.size() == result.cells.size(),
                 "sweep '", sweep.name(), "': cell count changed");
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const CellResult &a = serial.cells[i];
        const CellResult &b = result.cells[i];
        RNUMA_ASSERT(a.app == b.app && a.config == b.config,
                     "sweep '", sweep.name(),
                     "': cell order changed at index ", i);
        RNUMA_ASSERT(a.stats == b.stats, "sweep '", sweep.name(),
                     "': cell (", a.app, ", ", a.config,
                     ") is not bit-identical between serial and "
                     "parallel execution");
    }
}

} // namespace rnuma::driver
