#include "driver/sweep.hh"

#include <cerrno>
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

std::optional<std::size_t>
parseCount(const std::string &text)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    long n = std::strtol(begin, &end, 10);
    if (end == begin || *end != '\0' || n < 0 || errno == ERANGE)
        return std::nullopt;
    return static_cast<std::size_t>(n);
}

WorkloadInput::WorkloadInput(std::string id_, const Params &gen_,
                             double scale_, std::uint64_t seed_,
                             std::string options_)
    : id(std::move(id_)), gen(gen_), scale(scale_), seed(seed_),
      options(std::move(options_))
{
}

std::string
WorkloadInput::key() const
{
    // scale participates bit-exactly (formatting a double would
    // collapse nearby values).
    std::uint64_t scale_bits = 0;
    static_assert(sizeof(scale_bits) == sizeof(scale),
                  "double is not 64-bit");
    std::memcpy(&scale_bits, &scale, sizeof(scale_bits));
    std::ostringstream os;
    os << id << '@' << std::hex << gen.fingerprint() << '/'
       << scale_bits << '/' << seed << '/' << options;
    return os.str();
}

std::unique_ptr<Workload>
WorkloadInput::make() const
{
    return makeWorkload(id, gen, scale, seed, options);
}

void
Sweep::add(Cell c)
{
    RNUMA_ASSERT(!c.workload.id.empty(), "cell (", c.app, ", ",
                 c.config, ") names no workload");
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
    add({app, config, protocolSpec(proto), p, {app, p, scale, seed}});
}

void
Sweep::addComparison(const std::string &row, const Params &p,
                     const WorkloadInput &workload,
                     const std::vector<std::string> &specIds)
{
    Params inf = p;
    inf.infiniteBlockCache = true;
    add({row, "baseline", protocolSpec("ccnuma"), inf, workload});
    for (const std::string &id : specIds) {
        const ProtocolSpec &spec = protocolSpec(id);
        add({row, spec.id, spec, p, workload});
    }
}

} // namespace rnuma::driver
