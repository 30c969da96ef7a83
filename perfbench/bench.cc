#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "proto/registry.hh"
#include "sim/machine.hh"
#include "trace.hh"
#include "workload/registry.hh"

namespace perfbench
{

using namespace rnuma;

namespace
{

/** The Table 3 application generators, pinned by id. */
const char *const paperApps[] = {"barnes", "cholesky", "em3d", "fft",
                                 "fmm",    "lu",       "moldyn",
                                 "ocean",  "radix",    "raytrace"};

/** Every relocation-policy protocol the simulator registers. */
const char *const rnumaPolicies[] = {
    "rnuma",       "rnuma-hysteresis",   "rnuma-adaptive",
    "rnuma-model", "rnuma-utility",      "rnuma-online-model",
    "rnuma-ewma"};

/** The infinite-block-cache CC-NUMA run every figure normalizes to. */
Cell
baselineCell(const std::string &row, const std::string &generator,
             const std::string &options, double scale, const Params &p)
{
    Cell c{row + "/baseline", generator, options, scale, p, p,
           "ccnuma"};
    c.params.infiniteBlockCache = true;
    return c;
}

std::vector<Cell>
paperAppsCells()
{
    // Figure 6's traffic: 8 nodes, constant network, full map.
    const Params base = Params::base();
    std::vector<Cell> cells;
    for (const char *app : paperApps) {
        cells.push_back(baselineCell(app, app, "", 0.1, base));
        for (const char *proto : {"ccnuma", "scoma", "rnuma"})
            cells.push_back({std::string(app) + "/" + proto, app, "",
                             0.1, base, base, proto});
    }
    return cells;
}

std::vector<Cell>
relocationChurnCells()
{
    // The pool is 3x the 80-frame page cache; the phase count sets
    // the step the hot window moves by (80 pages vs 20 pages). Twelve
    // sweeps are the fewest at which every R-NUMA policy relocates on
    // the 20-page row (six leave five of the seven idle); fewer sweeps
    // would mean more timed passes in a run.
    const Params base = Params::base();
    std::vector<Cell> cells;
    for (const char *phases : {"3", "12"}) {
        const std::string row = std::string("shift-p") + phases;
        const std::string options =
            std::string("pages=240,phases=") + phases + ",sweeps=12";
        cells.push_back(
            baselineCell(row, "phase-shift", options, 1.0, base));
        std::vector<std::string> protos = {"ccnuma", "scoma"};
        protos.insert(protos.end(), std::begin(rnumaPolicies),
                      std::end(rnumaPolicies));
        for (const std::string &proto : protos)
            cells.push_back({row + "/" + proto, "phase-shift", options,
                             1.0, base, base, proto});
    }
    return cells;
}

std::vector<Cell>
meshSharingCells()
{
    // 60 requests per CPU keep a pass near 1 s, so a run times each
    // cell a few dozen times.
    const std::string options =
        "pages=48,theta=0.6,write=0.3,requests=60";
    struct Format
    {
        const char *id;
        SharerFormat format;
    };
    const Format formats[] = {{"full-map", SharerFormat::FullMap},
                              {"limited-pointer-4",
                               SharerFormat::LimitedPointer},
                              {"coarse-vector-8",
                               SharerFormat::CoarseVector}};
    std::vector<Cell> cells;
    for (std::size_t nodes : {64, 128}) {
        Params gen = Params::base();
        gen.numNodes = nodes;
        gen.networkModel = "mesh-2d";
        for (const Format &f : formats) {
            Params p = gen;
            p.dirFormat = f.format;
            p.dirPointers = 4;
            p.dirRegionSize = 8;
            for (const char *proto : {"ccnuma", "rnuma"})
                cells.push_back({"m" + std::to_string(nodes) + "/" +
                                     f.id + "/" + proto,
                                 "zipf-serve", options, 1.0, gen, p,
                                 proto});
        }
    }
    return cells;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-apps", "relocation-churn", "mesh-sharing"};
    return names;
}

std::vector<Cell>
workloadCells(const std::string &workload)
{
    if (workload == "paper-apps")
        return paperAppsCells();
    if (workload == "relocation-churn")
        return relocationChurnCells();
    if (workload == "mesh-sharing")
        return meshSharingCells();
    return {};
}

CellRun
runCell(const Cell &cell, std::uint64_t seed, bool traced,
        std::uint32_t cellId)
{
    const ProtocolSpec &registered = protocolSpec(cell.protocol);
    const ProtocolSpec spec =
        traced ? tracedSpec(registered) : registered;
    const Params params = traced ? tracedParams(cell.params)
                                 : cell.params;

    using clock = std::chrono::steady_clock;
    CellRun r;
    const auto t0 = clock::now();
    std::unique_ptr<Workload> wl = makeWorkload(
        cell.generator, cell.gen, cell.scale, seed, cell.options);
    const auto t1 = clock::now();
    Machine machine(params, spec, *wl);
    const auto t2 = clock::now();
    if (traced) {
        tracer().setCell(cellId);
        tracer().begin();
    }
    r.stats = machine.run();
    if (traced)
        tracer().end(Layer::SimRun);
    const auto t3 = clock::now();
    r.generateS = seconds(t0, t1);
    r.constructS = seconds(t1, t2);
    r.runS = seconds(t2, t3);
    return r;
}

std::uint64_t
generatedRefs(const Cell &cell, std::uint64_t seed)
{
    std::unique_ptr<Workload> wl = makeWorkload(
        cell.generator, cell.gen, cell.scale, seed, cell.options);
    std::uint64_t refs = 0;
    for (CpuId cpu = 0; cpu < wl->numCpus(); ++cpu) {
        for (;;) {
            const Ref &r = wl->next(cpu);
            if (r.kind == RefKind::End)
                break;
            if (r.kind == RefKind::Mem)
                ++refs;
        }
    }
    return refs;
}

bool
Counters::operator==(const Counters &o) const
{
    return ticks == o.ticks && events == o.events && refs == o.refs &&
        remoteFetches == o.remoteFetches &&
        relocations == o.relocations && netMessages == o.netMessages;
}

Counters
countersOf(const RunStats &s)
{
    Counters c;
    c.ticks = s.ticks;
    c.events = s.events;
    c.refs = s.refs;
    c.remoteFetches = s.remoteFetches;
    c.relocations = s.relocations;
    c.netMessages = s.net.totalMessages();
    return c;
}

bool
readExpected(const std::string &path, ExpectedCounters &out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string workload, cell;
        Counters c;
        if (!(ls >> workload >> cell >> c.ticks >> c.events >> c.refs >>
              c.remoteFetches >> c.relocations >> c.netMessages))
            return false;
        out[workload + "/" + cell] = c;
    }
    return true;
}

std::string
expectedLine(const std::string &workload, const Cell &cell,
             const Counters &c)
{
    std::ostringstream os;
    os << workload << '\t' << cell.name << '\t' << c.ticks << '\t'
       << c.events << '\t' << c.refs << '\t' << c.remoteFetches << '\t'
       << c.relocations << '\t' << c.netMessages;
    return os.str();
}

std::vector<std::string>
checkCell(const CellEvidence &e)
{
    std::vector<std::string> why;
    const RunStats &s = e.first;
    if (e.expected && !(countersOf(s) == *e.expected))
        why.push_back("counters differ from the pinned default-seed "
                      "values");
    if (!e.repeatsIdentical)
        why.push_back("a repeated pass gave different counters");
    if (e.traced != s)
        why.push_back("the traced pass gave different counters");
    if (s.coldMisses + s.coherenceMisses + s.refetches !=
        s.remoteFetches)
        why.push_back("cold + coherence + refetch != remote fetches");
    if (s.refs != e.generatedRefs)
        why.push_back("refs != the generated workload's references");
    return why;
}

namespace
{

// Three table lookups per queue step: of the variants tried (one to
// three lookups, 64 Ki to 1 Mi entries), this one's round time moved
// most nearly in proportion to the simulator's run time across 15 s
// windows of busy and quiet host periods, on paper-apps and on
// relocation-churn alike.
constexpr std::uint64_t yardstickEntries = 65536;
constexpr int yardstickSteps = 2000;
constexpr int yardstickLookups = 3;

std::uint64_t
yardstickKey(std::uint64_t i)
{
    return i * 2654435761u;
}

} // namespace

Yardstick::Yardstick()
{
    table_.reserve(yardstickEntries);
    for (std::uint64_t i = 0; i < yardstickEntries; ++i)
        table_[yardstickKey(i)] = static_cast<std::uint32_t>(i);
    for (std::uint64_t t = 0; t < 1024; ++t)
        queue_.push(t);
}

double
Yardstick::measure()
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < yardstickSteps; ++i) {
        std::uint32_t delay = 1;
        for (int l = 0; l < yardstickLookups; ++l) {
            rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
            auto it =
                table_.find(yardstickKey((rng_ >> 33) % yardstickEntries));
            // A data-dependent branch, like a protocol state check.
            if (it->second & 1)
                it->second += 3;
            else
                it->second ^= 5;
            delay += it->second & 255;
        }
        const std::uint64_t when = queue_.top();
        queue_.pop();
        queue_.push(when + delay);
    }
    return seconds(t0, std::chrono::steady_clock::now());
}

std::string
hostFingerprint()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(" \t",
                                                         colon + 1));
            break;
        }
    }
    std::ostringstream os;
    os << "{\"cpu\": \"" << jsonEscape(cpu) << "\", \"cores\": "
       << std::thread::hardware_concurrency() << ", \"compiler\": \""
       << jsonEscape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
       << jsonEscape(PERFBENCH_BUILD_TYPE) << "\"}";
    return os.str();
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
