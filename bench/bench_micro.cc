/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself (not a
 * paper experiment): per-component operation throughput and
 * end-to-end simulation rate. Useful for keeping the harness fast
 * enough to sweep the Figure 6-9 configurations.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/params.hh"
#include "common/rng.hh"
#include "driver/figures.hh"
#include "driver/sweep_runner.hh"
#include "mem/cache.hh"
#include "net/network.hh"
#include "proto/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"
#include "workload/registry.hh"

#include "heap_event_queue.hh"

namespace
{

using namespace rnuma;

/**
 * Simulator-shaped event deltas, precomputed so the benchmark loop
 * measures the queues, not the RNG: mostly think-time/bus-scale
 * steps, some fill/fetch latencies, occasional page-op jumps.
 */
const std::vector<Tick> &
eventDeltas()
{
    static const std::vector<Tick> deltas = [] {
        Rng rng(0x5eed);
        std::vector<Tick> v(8192);
        for (Tick &d : v) {
            std::uint64_t shape = rng.below(100);
            if (shape < 70)
                d = rng.below(16);
            else if (shape < 95)
                d = 60 + rng.below(400);
            else
                d = 3000 + rng.below(9000);
        }
        return v;
    }();
    return deltas;
}

/**
 * The Machine::run hot loop reduced to its scheduler interactions:
 * one live event per CPU of the paper machine; each iteration peeks,
 * pops, and reschedules the popped CPU at a simulator-shaped delta.
 * Run for the winner tree and for the std::priority_queue oracle, so
 * the tree's speedup over the heap is a tracked number.
 */
template <typename Queue>
void
schedulerPattern(benchmark::State &state, Queue &q)
{
    const std::vector<Tick> &deltas = eventDeltas();
    for (std::uint32_t c = 0; c < 32; ++c)
        q.schedule(0, c);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(q.peekTime());
        Event e = q.pop();
        q.schedule(e.when + deltas[i], e.tag);
        i = (i + 1) & (deltas.size() - 1);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_EventQueueHeap(benchmark::State &state)
{
    HeapEventQueue q;
    schedulerPattern(state, q);
}
BENCHMARK(BM_EventQueueHeap);

void
BM_EventQueueIndexed(benchmark::State &state)
{
    EventQueue q(32);
    schedulerPattern(state, q);
}
BENCHMARK(BM_EventQueueIndexed);

void
BM_CacheLookup(benchmark::State &state)
{
    Cache c(32 * 1024, 32, 1);
    Cache::Victim v;
    for (Addr a = 0; a < 32 * 1024; a += 32)
        c.allocate(a, v)->state = CacheState::Shared;
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.find(a));
        a = (a + 32) % (32 * 1024);
    }
}
BENCHMARK(BM_CacheLookup);

void
BM_CacheAllocateEvict(benchmark::State &state)
{
    Cache c(32 * 1024, 32, 1);
    Cache::Victim v;
    Addr a = 0;
    for (auto _ : state) {
        if (!c.find(a))
            c.allocate(a, v)->state = CacheState::Shared;
        a += 32 * 1024 + 32; // always conflicts
    }
}
BENCHMARK(BM_CacheAllocateEvict);

class NullSink : public CoherenceSink
{
  public:
    bool invalidateNodeCopy(NodeId, Addr) override { return false; }
    void downgradeNodeCopy(NodeId, Addr) override {}
};

class HomeZero : public Placement
{
  public:
    NodeId homeOf(Addr) const override { return 0; }
};

void
BM_ProtocolFetch(benchmark::State &state)
{
    Params p = Params::base();
    Network net(p.numNodes, p.netLatency, p.niOccupancy);
    HomeZero place;
    NullSink sink;
    std::vector<std::unique_ptr<Memory>> mems;
    std::vector<Memory *> ptrs;
    for (std::size_t i = 0; i < p.numNodes; ++i) {
        mems.push_back(
            std::make_unique<Memory>(p.dramAccess, p.blockSize));
        ptrs.push_back(mems.back().get());
    }
    GlobalProtocol proto(p, net, place, sink, ptrs);
    Tick now = 0;
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            proto.fetch(now, 1 + (a / 32) % 7, a, ReqType::GetS));
        a += 32;
        now += 400;
    }
}
BENCHMARK(BM_ProtocolFetch);

/**
 * The directory write path: ns per GetX that invalidates a fixed four
 * readers, for each sharer format on an N-node machine (args: format
 * index, N). Each block is primed untimed — the previous writer
 * writes back, then the four readers fetch — in batches, so only the
 * writes are timed. Four spread-out readers stay under the default
 * four-pointer budget, so limited-pointer never broadcasts; a
 * coarse-vector write invalidates the readers' whole regions.
 */
void
BM_DirectoryWrite(benchmark::State &state)
{
    Params p = Params::base();
    p.numNodes = static_cast<std::size_t>(state.range(1));
    p.dirFormat = static_cast<SharerFormat>(state.range(0));
    p.validate();
    state.SetLabel(p.directoryId());
    Network net(p.numNodes, p.netLatency, p.niOccupancy);
    HomeZero place;
    NullSink sink;
    std::vector<std::unique_ptr<Memory>> mems;
    std::vector<Memory *> ptrs;
    for (std::size_t i = 0; i < p.numNodes; ++i) {
        mems.push_back(
            std::make_unique<Memory>(p.dramAccess, p.blockSize));
        ptrs.push_back(mems.back().get());
    }
    GlobalProtocol proto(p, net, place, sink, ptrs);
    const NodeId writer = static_cast<NodeId>(p.numNodes - 1);
    NodeId readers[4];
    for (NodeId k = 0; k < 4; ++k)
        readers[k] = static_cast<NodeId>((k + 1) * p.numNodes / 5);
    constexpr std::size_t batch = 1024;
    std::size_t i = batch;
    Tick now = 0;
    for (auto _ : state) {
        if (i == batch) {
            state.PauseTiming();
            for (Addr b = 0; b < batch; ++b) {
                proto.writeback(now, writer, b * p.blockSize);
                for (NodeId r : readers)
                    proto.fetch(now, r, b * p.blockSize, ReqType::GetS);
            }
            i = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(
            proto.fetch(now, writer, i * p.blockSize, ReqType::GetX));
        ++i;
        now += 400;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectoryWrite)->ArgsProduct({{0, 1, 2}, {8, 64, 128, 512}});

void
BM_EndToEndSimulation(benchmark::State &state)
{
    Params p = Params::base();
    for (auto _ : state) {
        state.PauseTiming();
        auto wl = makeHotRemoteReuse(p, 16, 2);
        state.ResumeTiming();
        RunStats s = runProtocol(p, "rnuma", *wl);
        benchmark::DoNotOptimize(s.ticks);
        state.SetItemsProcessed(
            static_cast<std::int64_t>(s.refs));
    }
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

void
BM_AppSimulationRate(benchmark::State &state)
{
    Params p = Params::base();
    auto wl = makeWorkload("moldyn", p, 0.1);
    std::uint64_t refs = 0;
    for (auto _ : state) {
        RunStats s = runProtocol(p, "rnuma", *wl);
        refs += s.refs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_AppSimulationRate)->Unit(benchmark::kMillisecond);

void
BM_SweepRunner(benchmark::State &state)
{
    // The figure pipeline's hot loop: the "micro" figure's 16 cells
    // through the sweep driver at the given job count. On multi-core
    // hosts the >1-job configurations should approach linear
    // speedup, since cells share no mutable state.
    const driver::FigureSpec *spec = driver::findFigure("micro");
    driver::Sweep sweep = spec->build({0.05});
    driver::SweepRunner runner(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        driver::SweepResult r = runner.run(sweep);
        benchmark::DoNotOptimize(r.cells.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(sweep.size()));
}
BENCHMARK(BM_SweepRunner)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
