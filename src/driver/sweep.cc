#include "driver/sweep.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "workload/registry.hh"

namespace rnuma::driver
{

std::optional<double>
parseScale(const std::string &text)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    double s = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || !std::isfinite(s) || s <= 0)
        return std::nullopt;
    return s;
}

double
envScale()
{
    const char *env = std::getenv("RNUMA_BENCH_SCALE");
    if (!env)
        return 1.0;
    std::optional<double> s = parseScale(env);
    if (!s) {
        warn("ignoring RNUMA_BENCH_SCALE='", env,
             "' (want a positive finite number); using 1.0");
        return 1.0;
    }
    return *s;
}

WorkloadFactory
workloadFactory(std::string id, const Params &gen, double scale,
                std::uint64_t seed, std::string options)
{
    return [id = std::move(id), gen, scale, seed,
            options = std::move(options)] {
        return makeWorkload(id, gen, scale, seed, options);
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
    c.make = workloadFactory(app, p, scale, seed);
    c.workloadKey = workloadCacheKey(app, p, scale, seed);
    c.workload = app;
    add(std::move(c));
}

void
Sweep::addBaseline(const std::string &app, const Params &p,
                   double scale, std::uint64_t seed)
{
    addComparison(app, p, workloadFactory(app, p, scale, seed),
                  workloadCacheKey(app, p, scale, seed), app, {});
}

void
Sweep::addComparison(const std::string &row, const Params &gen,
                     const WorkloadFactory &make,
                     const std::string &key,
                     const std::string &workload,
                     const std::vector<std::string> &specIds)
{
    Params inf = gen;
    inf.infiniteBlockCache = true;
    add({row, "baseline", protocolSpec("ccnuma"), inf, make, key,
         workload});
    for (const std::string &id : specIds) {
        const ProtocolSpec &spec = protocolSpec(id);
        add({row, spec.id, spec, gen, make, key, workload});
    }
}

} // namespace rnuma::driver
