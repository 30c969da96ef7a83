#include "sim/runner.hh"

#include <limits>

#include "sim/machine.hh"

namespace rnuma
{

RunStats
runProtocol(const Params &params, const ProtocolSpec &spec,
            const Workload &wl)
{
    Machine m(params, spec, wl);
    return m.run();
}

RunStats
runProtocol(const Params &params, const std::string &name,
            const Workload &wl)
{
    return runProtocol(params, protocolSpec(name), wl);
}

RunStats
runInfiniteBaseline(const Params &params, const Workload &wl)
{
    Params base = params;
    base.infiniteBlockCache = true;
    return runProtocol(base, "ccnuma", wl);
}

double
normalizedTime(Tick num, Tick den)
{
    if (den == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(num) / static_cast<double>(den);
}

} // namespace rnuma
