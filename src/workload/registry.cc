#include "workload/registry.hh"

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
WorkloadOptions::getSize(const std::string &key,
                         std::size_t fallback) const
{
    const Pair *p = find(key);
    if (!p)
        return fallback;
    char *rest = nullptr;
    unsigned long long v = std::strtoull(p->value.c_str(), &rest, 10);
    if (rest == p->value.c_str() || *rest != '\0') {
        RNUMA_FATAL("workload option ", key, "=", p->value,
                    " is not an unsigned integer");
    }
    return static_cast<std::size_t>(v);
}

double
WorkloadOptions::getDouble(const std::string &key,
                           double fallback) const
{
    const Pair *p = find(key);
    if (!p)
        return fallback;
    char *rest = nullptr;
    double v = std::strtod(p->value.c_str(), &rest);
    if (rest == p->value.c_str() || *rest != '\0') {
        RNUMA_FATAL("workload option ", key, "=", p->value,
                    " is not a number");
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
// The Table 3 application table the registry's "app" entries are
// built from.
//--------------------------------------------------------------------------

namespace
{

struct Entry
{
    const char *name;
    const char *problem;
    const char *input;
    std::unique_ptr<VectorWorkload> (*make)(const Params &, double,
                                            std::uint64_t);
};

const Entry entries[] = {
    {"barnes", "Barnes-Hut N-body simulation", "16K particles",
     &makeBarnes},
    {"cholesky", "Blocked sparse Cholesky factorization", "tk16.O",
     &makeCholesky},
    {"em3d", "3-D electromagnetic wave propagation",
     "76800 nodes, 15% remote, 5 iters", &makeEm3d},
    {"fft", "Complex 1-D radix-sqrt(n) six-step FFT", "64K points",
     &makeFft},
    {"fmm", "Fast Multipole N-body simulation", "16K particles",
     &makeFmm},
    {"lu", "Blocked dense LU factorization",
     "512x512 matrix, 16x16 blocks", &makeLu},
    {"moldyn", "Molecular dynamics simulation",
     "2048 particles, 15 iters", &makeMoldyn},
    {"ocean", "Ocean simulation", "258x258 ocean", &makeOcean},
    {"radix", "Integer radix sort", "1M integers, radix 1024",
     &makeRadix},
    {"raytrace", "3-D scene rendering using ray-tracing", "car",
     &makeRaytrace},
};

/** Wrap a no-option factory: any option string is an error. */
WorkloadMakeFn
noOptions(const std::string &id,
          std::function<std::unique_ptr<Workload>(
              const Params &, double, std::uint64_t)>
              make)
{
    return [id, make](const Params &p, double scale,
                      std::uint64_t seed, const std::string &options)
               -> std::unique_ptr<Workload> {
        WorkloadOptions::parse(options).finish(id);
        return make(p, scale, seed);
    };
}

} // namespace

//--------------------------------------------------------------------------
// WorkloadRegistry
//--------------------------------------------------------------------------

void
addBuiltins(WorkloadRegistry &reg)
{
    // The ten Table 3 applications.
    for (const Entry &e : entries) {
        WorkloadSpec spec;
        spec.id = e.name;
        spec.displayName = e.name;
        spec.description = e.problem;
        spec.input = e.input;
        spec.category = "app";
        auto make = e.make;
        spec.make = noOptions(
            spec.id, [make](const Params &p, double scale,
                            std::uint64_t seed)
                         -> std::unique_ptr<Workload> {
                return make(p, scale, seed);
            });
        reg.add(std::move(spec));
    }

    // The microbenchmark patterns, defaulted to the parameterizations
    // the micro/policies/eq3/scaling figures run, so selecting one by
    // name reproduces its figure row.
    struct MicroEntry
    {
        const char *id;
        const char *displayName;
        const char *description;
        const char *input;
        WorkloadMakeFn make;
    };
    const MicroEntry micros[] = {
        {"private-loop", "Private loop",
         "per-cpu private pages reused in a loop; the all-local "
         "floor every protocol should match",
         "pages=4, iters=20",
         [](const Params &p, double scale, std::uint64_t,
            const std::string &options) -> std::unique_ptr<Workload> {
             auto o = WorkloadOptions::parse(options);
             std::size_t pages = o.getSize("pages", 4);
             std::size_t iters =
                 o.getSize("iters", scaled(20, scale));
             o.finish("private-loop");
             return makePrivateLoop(p, pages, iters);
         }},
        {"hot-reuse", "Hot remote reuse",
         "every cpu sweeps a node-0 page set repeatedly; the "
         "relocation win case",
         "pages=120, sweeps=8",
         [](const Params &p, double scale, std::uint64_t,
            const std::string &options) -> std::unique_ptr<Workload> {
             auto o = WorkloadOptions::parse(options);
             std::size_t pages =
                 o.getSize("pages", scaled(120, scale, 2));
             std::size_t sweeps = o.getSize("sweeps", 8);
             o.finish("hot-reuse");
             return makeHotRemoteReuse(p, pages, sweeps);
         }},
        {"evict-storm", "Eviction storm",
         "reuse set overflows the page cache; relocation thrash "
         "unless the policy backs off",
         "pages=frames+80, sweeps=16",
         [](const Params &p, double scale, std::uint64_t,
            const std::string &options) -> std::unique_ptr<Workload> {
             auto o = WorkloadOptions::parse(options);
             std::size_t pages =
                 o.getSize("pages", p.pageCacheFrames() +
                                        scaled(80, scale, 40));
             std::size_t sweeps =
                 o.getSize("sweeps", scaled(16, scale, 8));
             o.finish("evict-storm");
             return makeEvictionStorm(p, pages, sweeps);
         }},
        {"producer-consumer", "Producer-consumer",
         "node-0 writes, every other node reads; the S-COMA "
         "replication win case",
         "pages=32, rounds=10",
         [](const Params &p, double scale, std::uint64_t,
            const std::string &options) -> std::unique_ptr<Workload> {
             auto o = WorkloadOptions::parse(options);
             std::size_t pages =
                 o.getSize("pages", scaled(32, scale, 1));
             std::size_t rounds = o.getSize("rounds", 10);
             o.finish("producer-consumer");
             return makeProducerConsumer(p, pages, rounds);
         }},
        {"rw-sharing", "Read-write sharing",
         "fine-grain read-write sharing of one page; the CC-NUMA "
         "win case",
         "rounds=400",
         [](const Params &p, double scale, std::uint64_t,
            const std::string &options) -> std::unique_ptr<Workload> {
             auto o = WorkloadOptions::parse(options);
             std::size_t rounds =
                 o.getSize("rounds", scaled(400, scale, 8));
             o.finish("rw-sharing");
             return makeRwSharing(p, rounds);
         }},
        {"adversary", "Adversary",
         "touches each remote page exactly threshold+1 times; the "
         "Equation 3 worst case",
         "pages=24, touches=threshold+1",
         [](const Params &p, double, std::uint64_t,
            const std::string &options) -> std::unique_ptr<Workload> {
             auto o = WorkloadOptions::parse(options);
             std::size_t pages = o.getSize("pages", 24);
             std::size_t touches = o.getSize(
                 "touches", p.relocationThreshold + 1);
             o.finish("adversary");
             return makeAdversary(p, pages, touches);
         }},
        {"scaling-shift", "Scaling shift",
         "neighbor-shifted page sweeps that scale with the node "
         "count; the topology-sweep generator",
         "pages=4/node, sweeps=4",
         [](const Params &p, double scale, std::uint64_t,
            const std::string &options) -> std::unique_ptr<Workload> {
             auto o = WorkloadOptions::parse(options);
             std::size_t pages =
                 o.getSize("pages", scaled(4, scale, 1));
             std::size_t sweeps =
                 o.getSize("sweeps", scaled(4, scale, 2));
             o.finish("scaling-shift");
             return makeScalingShift(p, pages, sweeps);
         }},
    };
    for (const MicroEntry &m : micros) {
        WorkloadSpec spec;
        spec.id = m.id;
        spec.displayName = m.displayName;
        spec.description = m.description;
        spec.input = m.input;
        spec.category = "micro";
        spec.make = m.make;
        reg.add(std::move(spec));
    }

    // The commercial-serving generators (Section 1's motivating
    // traffic): Zipf-skewed page service, diurnal phase rotation,
    // and multi-tenant interleaving, plus the database-scan demo
    // promoted from examples/.
    WorkloadSpec zipf;
    zipf.id = "zipf-serve";
    zipf.displayName = "Zipf serving";
    zipf.description =
        "Zipf-skewed page service: popularity rank r is hit with "
        "weight 1/r^theta; parameterized read/write mix";
    zipf.input = "pages=480, theta=0.8, write=0.1, requests=2400";
    zipf.category = "serving";
    zipf.make = [](const Params &p, double scale, std::uint64_t seed,
                   const std::string &options) {
        return std::unique_ptr<Workload>(
            makeZipfServe(p, scale, seed, options));
    };
    reg.add(std::move(zipf));

    WorkloadSpec phase;
    phase.id = "phase-shift";
    phase.displayName = "Phase shift";
    phase.description =
        "working set rotates on a diurnal schedule; stresses "
        "relocation-vs-eviction churn across phase boundaries";
    phase.input = "pages=3x frames, phases=6, sweeps=4";
    phase.category = "serving";
    phase.make = [](const Params &p, double scale, std::uint64_t seed,
                    const std::string &options) {
        return std::unique_ptr<Workload>(
            makePhaseShift(p, scale, seed, options));
    };
    reg.add(std::move(phase));

    WorkloadSpec ten;
    ten.id = "tenants";
    ten.displayName = "Multi-tenant";
    ten.description =
        "K independent tenant address spaces interleaved per node; "
        "stresses page-cache fairness under competing hot sets";
    ten.input = "tenants=4, pages=96/tenant, rounds=6";
    ten.category = "serving";
    ten.make = [](const Params &p, double scale, std::uint64_t seed,
                  const std::string &options) {
        return std::unique_ptr<Workload>(
            makeTenants(p, scale, seed, options));
    };
    reg.add(std::move(ten));

    WorkloadSpec db;
    db.id = "database-scan";
    db.displayName = "Database scan";
    db.description =
        "transaction mix over a shared buffer pool with a hot "
        "subset, per-cpu scratch, and a lock page";
    db.input = "transactions=48, pool=160 pages, hot=24";
    db.category = "serving";
    db.make = [](const Params &p, double scale, std::uint64_t seed,
                 const std::string &options) {
        return std::unique_ptr<Workload>(
            makeDatabaseScan(p, scale, seed, options));
    };
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

const WorkloadSpec *
findWorkloadSpec(const std::string &name)
{
    return WorkloadRegistry::global().find(name);
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
    std::unique_ptr<Workload> wl = spec.make(p, scale, seed, options);
    RNUMA_ASSERT(wl != nullptr, "workload '", spec.id,
                 "' factory returned null");
    // Every generator clamps its structure (see scaled()) so that it
    // stays viable at any positive scale; a workload with zero loads
    // and stores would silently turn every figure cell into a no-op.
    if (auto *vec = dynamic_cast<const VectorWorkload *>(wl.get())) {
        RNUMA_ASSERT(vec->memRefCount() > 0, "workload '", spec.id,
                     "' emitted no memory references at scale ",
                     scale);
    }
    return wl;
}

} // namespace rnuma
