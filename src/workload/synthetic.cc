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
StreamBuilder::touch(CpuId cpu, Addr a)
{
    wl->push(cpu, Ref::touchOf(a));
}

void
StreamBuilder::touchRange(CpuId cpu, Addr base, std::size_t bytes)
{
    Addr first = base / p.pageSize;
    Addr last = (base + bytes - 1) / p.pageSize;
    for (Addr pg = first; pg <= last; ++pg)
        touch(cpu, pg * p.pageSize);
}

void
StreamBuilder::read(CpuId cpu, Addr a, std::uint32_t think)
{
    wl->push(cpu, Ref::mem(a, false, think));
}

void
StreamBuilder::write(CpuId cpu, Addr a, std::uint32_t think)
{
    wl->push(cpu, Ref::mem(a, true, think));
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
