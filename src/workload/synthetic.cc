#include "workload/synthetic.hh"

#include <cmath>

#include "common/logging.hh"

namespace rnuma
{

StreamBuilder::StreamBuilder(std::string name, const Params &params,
                             std::uint64_t seed)
    : p(params), as(params.pageSize), rng_(seed),
      wl(std::make_unique<Workload>(std::move(name), params.numCpus()))
{
}

void
StreamBuilder::touchRange(CpuId cpu, Addr base, std::size_t bytes)
{
    if (bytes == 0)
        return;
    Addr first = base / p.pageSize;
    Addr last = (base + bytes - 1) / p.pageSize;
    for (Addr pg = first; pg <= last; ++pg)
        touch(cpu, pg * p.pageSize);
}

std::optional<std::size_t>
reserveBound(std::initializer_list<std::size_t> factors, std::size_t extra)
{
    std::size_t n = 1;
    for (std::size_t f : factors)
        if (__builtin_mul_overflow(n, f, &n))
            return std::nullopt;
    if (__builtin_add_overflow(n, extra, &n) || n > maxReserveEntries)
        return std::nullopt;
    return n;
}

void
StreamBuilder::reserveEach(std::initializer_list<std::size_t> factors,
                           std::size_t extra)
{
    if (auto n = reserveBound(factors, extra))
        wl->reserveEach(*n);
}

void
StreamBuilder::barrier()
{
    wl->pushBarrierAll();
}

std::unique_ptr<Workload>
StreamBuilder::finish()
{
    RNUMA_ASSERT(wl, "finish() called twice");
    wl->seal();
    // Geometry audit: every address a generator emits must lie
    // inside the space it allocated. Historically generators have
    // baked in layout assumptions (record size vs blockSize,
    // working-set pages vs machine width) that only overflow on
    // unusual Params, silently touching other allocations'
    // addresses; this turns those bugs into immediate failures at
    // generation time, on every configuration.
    wl->setAddrLimit(as.bytesAllocated());
    return std::move(wl);
}

std::size_t
scaled(std::size_t v, double scale, std::size_t min)
{
    if (!std::isfinite(scale) || scale <= 0) {
        RNUMA_FATAL("workload scale must be a positive finite number, "
                    "got ", scale);
    }
    if (min == 0)
        min = 1;
    double s = static_cast<double>(v) * scale;
    // llround's range ends at 2^63; past it the count is garbage.
    if (!(s < 0x1p63)) {
        RNUMA_FATAL("workload scale ", scale, " scales ", v,
                    " past any representable count");
    }
    std::size_t r = static_cast<std::size_t>(std::llround(s));
    return r < min ? min : r;
}

} // namespace rnuma
