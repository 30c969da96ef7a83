#include "workload/registry.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "workload/apps/apps.hh"
#include "workload/micro.hh"
#include "workload/serving.hh"
#include "workload/synthetic.hh"

namespace rnuma
{

//--------------------------------------------------------------------------
// WorkloadOptions
//--------------------------------------------------------------------------

WorkloadOptions
WorkloadOptions::parse(const std::string &text)
{
    WorkloadOptions opts;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string pair = text.substr(pos, end - pos);
        pos = end + 1;
        if (pair.empty())
            continue;
        std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq == pair.size() - 1) {
            RNUMA_FATAL("malformed workload option '", pair,
                        "' (expected key=value[,key=value...])");
        }
        Pair p;
        p.key = pair.substr(0, eq);
        p.value = pair.substr(eq + 1);
        for (const Pair &seen : opts.pairs_) {
            if (seen.key == p.key)
                RNUMA_FATAL("workload option '", p.key,
                            "' is given more than once");
        }
        opts.pairs_.push_back(std::move(p));
    }
    return opts;
}

const WorkloadOptions::Pair *
WorkloadOptions::find(const std::string &key) const
{
    for (const Pair &p : pairs_) {
        if (p.key == key) {
            p.consumed = true;
            return &p;
        }
    }
    return nullptr;
}

std::size_t
WorkloadOptions::getSize(const std::string &key, std::size_t fallback,
                         std::size_t min, std::size_t max) const
{
    const Pair *p = find(key);
    if (!p)
        return fallback;
    // strtoull would skip blanks, wrap "-1" and saturate on overflow.
    const char *s = p->value.c_str();
    char *rest = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &rest, 10);
    if (!std::isdigit(static_cast<unsigned char>(*s)) || *rest != '\0' ||
        errno == ERANGE) {
        RNUMA_FATAL("workload option ", key, "=", p->value,
                    " is not an unsigned integer");
    }
    if (v < min) {
        RNUMA_FATAL("workload option ", key, "=", p->value,
                    " is out of range (want ", key, " >= ", min, ")");
    }
    if (v > max) {
        RNUMA_FATAL("workload option ", key, "=", p->value,
                    " is out of range (want ", key, " <= ", max, ")");
    }
    return static_cast<std::size_t>(v);
}

double
WorkloadOptions::getDouble(const std::string &key, double fallback,
                           double lo, double hi) const
{
    const Pair *p = find(key);
    if (!p)
        return fallback;
    char *rest = nullptr;
    double v = std::strtod(p->value.c_str(), &rest);
    if (rest == p->value.c_str() || *rest != '\0' || !std::isfinite(v)) {
        RNUMA_FATAL("workload option ", key, "=", p->value,
                    " is not a finite number");
    }
    if (v < lo || v > hi) {
        RNUMA_FATAL("workload option ", key, "=", p->value,
                    " is out of range (want ", lo, " <= ", key, " <= ",
                    hi, ")");
    }
    return v;
}

std::string
WorkloadOptions::getString(const std::string &key,
                           const std::string &fallback) const
{
    const Pair *p = find(key);
    return p ? p->value : fallback;
}

void
WorkloadOptions::finish(const std::string &workload) const
{
    for (const Pair &p : pairs_) {
        if (!p.consumed) {
            RNUMA_FATAL("workload '", workload,
                        "' does not take option '", p.key, "'");
        }
    }
}

//--------------------------------------------------------------------------
// The generators that take no options: the Table 3 applications and
// the microbenchmark patterns.
//--------------------------------------------------------------------------

namespace
{

/** A no-option generator: its defaults are its only input. */
using FixedMakeFn = std::unique_ptr<Workload> (*)(const Params &, double,
                                                  std::uint64_t);

struct Entry
{
    const char *id;
    const char *displayName;
    const char *description;
    const char *input;
    FixedMakeFn make;
};

/** The ten Table 3 applications, listed under their own ids. */
const Entry apps[] = {
    {"barnes", "barnes", "Barnes-Hut N-body simulation", "16K particles",
     &makeBarnes},
    {"cholesky", "cholesky", "Blocked sparse Cholesky factorization",
     "tk16.O", &makeCholesky},
    {"em3d", "em3d", "3-D electromagnetic wave propagation",
     "76800 nodes, 15% remote, 5 iters", &makeEm3d},
    {"fft", "fft", "Complex 1-D radix-sqrt(n) six-step FFT",
     "64K points", &makeFft},
    {"fmm", "fmm", "Fast Multipole N-body simulation", "16K particles",
     &makeFmm},
    {"lu", "lu", "Blocked dense LU factorization",
     "512x512 matrix, 16x16 blocks", &makeLu},
    {"moldyn", "moldyn", "Molecular dynamics simulation",
     "2048 particles, 15 iters", &makeMoldyn},
    {"ocean", "ocean", "Ocean simulation", "258x258 ocean", &makeOcean},
    {"radix", "radix", "Integer radix sort", "1M integers, radix 1024",
     &makeRadix},
    {"raytrace", "raytrace", "3-D scene rendering using ray-tracing",
     "car", &makeRaytrace},
};

/**
 * The microbenchmark patterns, at the parameterizations the
 * micro/policies/eq3/scaling figures run. Tests and examples that
 * need other sizes call the typed make* functions (workload/micro.hh).
 */
const Entry micros[] = {
    {"private-loop", "Private loop",
     "per-cpu private pages reused in a loop; the all-local floor "
     "every protocol should match",
     "4 pages per cpu, 20 iterations",
     [](const Params &p, double scale, std::uint64_t) {
         return makePrivateLoop(p, 4, scaled(20, scale));
     }},
    {"hot-reuse", "Hot remote reuse",
     "every cpu sweeps a node-0 page set repeatedly; the relocation "
     "win case",
     "120 pages, 8 sweeps",
     [](const Params &p, double scale, std::uint64_t) {
         return makeHotRemoteReuse(p, scaled(120, scale, 2), 8);
     }},
    {"evict-storm", "Eviction storm",
     "reuse set overflows the page cache; relocation thrash unless "
     "the policy backs off",
     "frames+80 pages, 16 sweeps",
     [](const Params &p, double scale, std::uint64_t) {
         return makeEvictionStorm(
             p, p.pageCacheFrames() + scaled(80, scale, 40),
             scaled(16, scale, 8));
     }},
    {"producer-consumer", "Producer-consumer",
     "node-0 writes, every other node reads; the S-COMA replication "
     "win case",
     "32 pages, 10 rounds",
     [](const Params &p, double scale, std::uint64_t) {
         return makeProducerConsumer(p, scaled(32, scale, 1), 10);
     }},
    {"rw-sharing", "Read-write sharing",
     "fine-grain read-write sharing of one page; the CC-NUMA win "
     "case",
     "400 rounds",
     [](const Params &p, double scale, std::uint64_t) {
         return makeRwSharing(p, scaled(400, scale, 8));
     }},
    {"adversary", "Adversary",
     "touches each remote page exactly threshold+1 times; the "
     "Equation 3 worst case",
     "24 pages, threshold+1 touches",
     [](const Params &p, double, std::uint64_t) {
         return makeAdversary(p, 24, p.relocationThreshold + 1);
     }},
    {"scaling-shift", "Scaling shift",
     "neighbor-shifted page sweeps that scale with the node count; "
     "the topology-sweep generator",
     "4 pages per node, 4 sweeps",
     [](const Params &p, double scale, std::uint64_t) {
         return makeScalingShift(p, scaled(4, scale, 1),
                                 scaled(4, scale, 2));
     }},
};

/** Wrap a no-option factory: any option string is an error. */
WorkloadMakeFn
noOptions(const std::string &id, FixedMakeFn make)
{
    return [id, make](const Params &p, double scale,
                      std::uint64_t seed, const std::string &options) {
        WorkloadOptions::parse(options).finish(id);
        return make(p, scale, seed);
    };
}

/** Register @p entries under @p category. */
template <std::size_t N>
void
addFixed(WorkloadRegistry &reg, const Entry (&entries)[N],
         const char *category)
{
    for (const Entry &e : entries) {
        WorkloadSpec spec;
        spec.id = e.id;
        spec.displayName = e.displayName;
        spec.description = e.description;
        spec.input = e.input;
        spec.category = category;
        spec.make = noOptions(spec.id, e.make);
        reg.add(std::move(spec));
    }
}

} // namespace

//--------------------------------------------------------------------------
// WorkloadRegistry
//--------------------------------------------------------------------------

void
addBuiltins(WorkloadRegistry &reg)
{
    addFixed(reg, apps, "app");
    addFixed(reg, micros, "micro");

    // The commercial-serving generators (Section 1's motivating
    // traffic): Zipf-skewed page service and diurnal phase
    // rotation, plus the database-scan demo promoted from examples/.
    WorkloadSpec zipf;
    zipf.id = "zipf-serve";
    zipf.displayName = "Zipf serving";
    zipf.description =
        "Zipf-skewed page service: popularity rank r is hit with "
        "weight 1/r^theta; parameterized read/write mix";
    zipf.input = "pages=480, theta=0.8, write=0.1, requests=2400";
    zipf.category = "serving";
    zipf.make = &makeZipfServe;
    reg.add(std::move(zipf));

    WorkloadSpec phase;
    phase.id = "phase-shift";
    phase.displayName = "Phase shift";
    phase.description =
        "working set rotates on a diurnal schedule; stresses "
        "relocation-vs-eviction churn across phase boundaries";
    phase.input = "pages=3x frames, phases=6, sweeps=4";
    phase.category = "serving";
    phase.make = &makePhaseShift;
    reg.add(std::move(phase));

    WorkloadSpec db;
    db.id = "database-scan";
    db.displayName = "Database scan";
    db.description =
        "transaction mix over a shared buffer pool with a hot "
        "subset, per-cpu scratch, and a lock page";
    db.input = "transactions=48, pool=160 pages, hot=24";
    db.category = "serving";
    db.make = &makeDatabaseScan;
    reg.add(std::move(db));
}

Table
workloadTable()
{
    Table t({"id", "name", "category", "input", "description"});
    for (const WorkloadSpec *s : WorkloadRegistry::global().all()) {
        t.addRow({s->id, s->displayName, s->category, s->input,
                  s->description});
    }
    return t;
}

const WorkloadSpec &
workloadSpec(const std::string &name)
{
    return WorkloadRegistry::global().at(name);
}

std::vector<std::string>
workloadIds(const std::string &category)
{
    std::vector<std::string> ids;
    for (const WorkloadSpec *s : WorkloadRegistry::global().all())
        if (s->category == category)
            ids.push_back(s->id);
    return ids;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Params &p, double scale,
             std::uint64_t seed, const std::string &options)
{
    const WorkloadSpec &spec = workloadSpec(name);
    std::unique_ptr<Workload> wl =
        spec.make(p, scale, seed, options);
    RNUMA_ASSERT(wl != nullptr, "workload '", spec.id,
                 "' factory returned null");
    // Every generator clamps its structure (see scaled()) so that it
    // stays viable at any positive scale; a workload with zero loads
    // and stores would silently turn every figure cell into a no-op.
    RNUMA_ASSERT(wl->memRefCount() > 0, "workload '", spec.id,
                 "' emitted no memory references at scale ", scale);
    return wl;
}

} // namespace rnuma
