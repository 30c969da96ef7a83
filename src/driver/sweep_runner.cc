#include "driver/sweep_runner.hh"

#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

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

SweepRunner::SweepRunner(std::size_t jobs) : jobs_(jobs)
{
    if (jobs_ == 0) {
        jobs_ = std::thread::hardware_concurrency();
        if (jobs_ == 0)
            jobs_ = 1;
    }
}

std::shared_ptr<const VectorWorkload>
WorkloadCache::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second;
}

void
WorkloadCache::insert(const std::string &key,
                      std::shared_ptr<const VectorWorkload> snapshot)
{
    RNUMA_ASSERT(snapshot, "caching a null workload snapshot");
    std::lock_guard<std::mutex> lock(m_);
    map_.emplace(key, std::move(snapshot));
}

void
WorkloadCache::recordRun(std::size_t generated, std::size_t hits)
{
    std::lock_guard<std::mutex> lock(m_);
    generated_ += generated;
    hits_ += hits;
}

std::size_t
WorkloadCache::generated() const
{
    std::lock_guard<std::mutex> lock(m_);
    return generated_;
}

std::size_t
WorkloadCache::hits() const
{
    std::lock_guard<std::mutex> lock(m_);
    return hits_;
}

std::size_t
WorkloadCache::snapshots() const
{
    std::lock_guard<std::mutex> lock(m_);
    return map_.size();
}

namespace
{

/** One generated-once workload snapshot, shared by key. */
using SnapshotMap =
    std::unordered_map<std::string,
                       std::shared_ptr<const VectorWorkload>>;

/**
 * Keyed workloads whose factory product could not be snapshotted
 * (not a VectorWorkload): the phase-1 generation is not wasted —
 * the first cell asking for the key takes it; the rest regenerate,
 * matching the cache-off cost. Mutex-guarded, but only this cold
 * path ever touches it.
 */
struct LeftoverPool
{
    std::mutex m;
    std::unordered_map<std::string, std::unique_ptr<Workload>> map;

    std::unique_ptr<Workload>
    take(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(m);
        auto it = map.find(key);
        if (it == map.end())
            return nullptr;
        std::unique_ptr<Workload> wl = std::move(it->second);
        map.erase(it);
        return wl;
    }
};

CellResult
runCell(const Cell &cell, const SnapshotMap &snapshots,
        LeftoverPool &leftovers)
{
    CellResult r;
    r.app = cell.app;
    r.config = cell.config;
    r.protocol = cell.proto.id;
    r.protocolName = cell.proto.displayName;
    r.network = cell.params.networkModel;
    r.directory = cell.params.directoryId();
    r.workload = cell.workload;

    std::unique_ptr<Workload> wl;
    if (!cell.workloadKey.empty()) {
        auto it = snapshots.find(cell.workloadKey);
        if (it != snapshots.end() && it->second)
            wl = std::make_unique<SnapshotWorkload>(it->second);
        else if (it != snapshots.end())
            wl = leftovers.take(cell.workloadKey);
    }
    if (!wl)
        wl = cell.make();
    RNUMA_ASSERT(wl, "cell (", cell.app, ", ", cell.config,
                 ") factory returned no workload");
    r.stats = runProtocol(cell.params, cell.proto, *wl);
    return r;
}

} // namespace

SweepResult
SweepRunner::run(const Sweep &sweep) const
{
    const std::vector<Cell> &cells = sweep.cells();
    SweepResult result;
    result.cells.resize(cells.size());

    // Phase 1 (cache enabled): generate each distinct keyed workload
    // once, concurrently. Keys already present in an attached
    // process-scope WorkloadCache are served from it without
    // generating (a cross-figure hit); freshly generated snapshots
    // are published back to it. A keyed factory whose product is not
    // a VectorWorkload cannot be snapshotted and falls back to
    // per-cell generation.
    SnapshotMap snapshots;
    LeftoverPool leftovers;
    if (cache_) {
        std::vector<const Cell *> generators;
        for (const Cell &c : cells) {
            if (c.workloadKey.empty() ||
                snapshots.count(c.workloadKey))
                continue;
            if (shared_) {
                auto snap = shared_->find(c.workloadKey);
                if (snap) {
                    snapshots.emplace(c.workloadKey,
                                      std::move(snap));
                    continue;
                }
            }
            snapshots.emplace(c.workloadKey, nullptr);
            generators.push_back(&c);
        }
        parallelFor(generators.size(), jobs_, [&](std::size_t i) {
            const Cell &c = *generators[i];
            std::unique_ptr<Workload> wl = c.make();
            RNUMA_ASSERT(wl, "cell (", c.app, ", ", c.config,
                         ") factory returned no workload");
            // Transfer ownership into the shared snapshot; each
            // generator writes only its own (pre-inserted) map slot,
            // so no rehash or locking is involved.
            auto *vec = dynamic_cast<VectorWorkload *>(wl.get());
            if (vec) {
                wl.release();
                snapshots[c.workloadKey] =
                    std::shared_ptr<const VectorWorkload>(vec);
            } else {
                // Not snapshottable; keep the product for one cell.
                std::lock_guard<std::mutex> lock(leftovers.m);
                leftovers.map[c.workloadKey] = std::move(wl);
            }
        });
        std::size_t served = 0;
        for (const Cell &c : cells) {
            if (c.workloadKey.empty())
                continue;
            auto it = snapshots.find(c.workloadKey);
            if (it != snapshots.end() && it->second)
                served++;
        }
        for (const Cell *c : generators)
            if (snapshots[c->workloadKey])
                result.workloadsGenerated++;
        result.workloadCacheHits =
            served - result.workloadsGenerated;
        if (shared_) {
            for (const Cell *c : generators) {
                auto &snap = snapshots[c->workloadKey];
                if (snap)
                    shared_->insert(c->workloadKey, snap);
            }
            shared_->recordRun(result.workloadsGenerated,
                               result.workloadCacheHits);
        }
    }

    // Phase 2: run every cell. Each task writes only its own slot,
    // so results land in cell order and the per-cell stats are
    // bit-identical at any job count; parallelFor reports a failed
    // cell from this thread.
    parallelFor(cells.size(), jobs_, [&](std::size_t i) {
        result.cells[i] = runCell(cells[i], snapshots, leftovers);
    });
    return result;
}

void
verifySerialIdentical(const Sweep &sweep, const SweepResult &result,
                      bool cacheWorkloads)
{
    SweepResult serial =
        SweepRunner(1).cacheWorkloads(cacheWorkloads).run(sweep);
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
