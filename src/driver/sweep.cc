#include "driver/sweep.hh"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "workload/registry.hh"

namespace rnuma::driver
{

double
envScale()
{
    const char *env = std::getenv("RNUMA_BENCH_SCALE");
    if (!env)
        return 1.0;
    char *end = nullptr;
    double s = std::strtod(env, &end);
    if (end == env || *end != '\0' || s <= 0) {
        warn("ignoring RNUMA_BENCH_SCALE='", env,
             "' (want a positive number); using 1.0");
        return 1.0;
    }
    return s;
}

std::size_t
envJobs()
{
    const char *env = std::getenv("RNUMA_BENCH_JOBS");
    if (!env)
        return 1;
    char *end = nullptr;
    long j = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || j < 0) {
        warn("ignoring RNUMA_BENCH_JOBS='", env,
             "' (want a non-negative integer; 0 = all cores); "
             "using 1");
        return 1;
    }
    return static_cast<std::size_t>(j);
}

WorkloadFactory
appFactory(std::string app, const Params &gen, double scale,
           std::uint64_t seed)
{
    return [app = std::move(app), gen, scale, seed] {
        return std::unique_ptr<Workload>(
            makeApp(app, gen, scale, seed));
    };
}

std::string
workloadCacheKey(const std::string &name, const Params &gen,
                 double scale, std::uint64_t seed)
{
    // scale participates bit-exactly (formatting a double would
    // collapse nearby values).
    std::uint64_t scale_bits = 0;
    static_assert(sizeof(scale_bits) == sizeof(scale),
                  "double is not 64-bit");
    std::memcpy(&scale_bits, &scale, sizeof(scale_bits));
    std::ostringstream os;
    os << name << '@' << std::hex << gen.fingerprint() << '/'
       << scale_bits << '/' << seed;
    return os.str();
}

Sweep::Sweep(std::string name, std::string title,
             std::string paper_ref)
    : name_(std::move(name)), title_(std::move(title)),
      paper_ref_(std::move(paper_ref))
{
}

void
Sweep::add(Cell c)
{
    RNUMA_ASSERT(c.make, "cell (", c.app, ", ", c.config,
                 ") has no workload factory");
    RNUMA_ASSERT(c.proto.valid(), "cell (", c.app, ", ", c.config,
                 ") has no protocol spec");
    for (const Cell &prev : cells_) {
        if (prev.app == c.app && prev.config == c.config) {
            RNUMA_FATAL("duplicate cell (", c.app, ", ", c.config,
                        ") in sweep '", name_, "'");
        }
    }
    cells_.push_back(std::move(c));
}

void
Sweep::addApp(const std::string &app, const std::string &config,
              const Params &p, const std::string &proto,
              double scale, std::uint64_t seed)
{
    Cell c;
    c.app = app;
    c.config = config;
    c.proto = protocolSpec(proto);
    c.params = p;
    c.make = appFactory(app, p, scale, seed);
    c.workloadKey = workloadCacheKey(app, p, scale, seed);
    c.workload = app;
    add(std::move(c));
}

void
Sweep::addBaseline(const std::string &app, const Params &p,
                   double scale, std::uint64_t seed)
{
    Cell c;
    c.app = app;
    c.config = "baseline";
    c.proto = protocolSpec("ccnuma");
    c.params = p;
    c.params.infiniteBlockCache = true;
    c.make = appFactory(app, p, scale, seed);
    c.workloadKey = workloadCacheKey(app, p, scale, seed);
    c.workload = app;
    add(std::move(c));
}

} // namespace rnuma::driver
