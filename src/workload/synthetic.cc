#include "workload/synthetic.hh"

#include <cmath>
#include <cstdint>

#include "common/logging.hh"

namespace rnuma
{

StreamBuilder::StreamBuilder(std::string name, const Params &params,
                             std::uint64_t seed)
    : p(params), as(params.pageSize), rng_(seed),
      wl(std::make_unique<Workload>(std::move(name), params.numCpus())),
      cap(params.numCpus(), SIZE_MAX)
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

std::size_t
StreamBuilder::pagesIn(Addr base, std::size_t bytes) const
{
    if (bytes == 0)
        return 0;
    return (base + bytes - 1) / p.pageSize - base / p.pageSize + 1;
}

std::size_t
StreamBuilder::sliceStart(NodeId n, std::size_t pages) const
{
    if (n >= nnodes())
        return pages;
    std::size_t per = pages / nnodes() ? pages / nnodes() : 1;
    return n * per < pages ? n * per : pages;
}

void
StreamBuilder::homeSliced(Addr base, std::size_t pages)
{
    for (NodeId n = 0; n < nnodes(); ++n) {
        CpuId lead = static_cast<CpuId>(n * cpusPerNode());
        for (std::size_t pg = sliceStart(n, pages);
             pg < sliceStart(n + 1, pages); ++pg)
            touch(lead, base + pg * p.pageSize);
    }
}

void
StreamBuilder::homeRoundRobin(Addr base, std::size_t pages)
{
    for (std::size_t pg = 0; pg < pages; ++pg) {
        NodeId n = static_cast<NodeId>(pg % nnodes());
        touch(static_cast<CpuId>(n * cpusPerNode()),
              base + pg * p.pageSize);
    }
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
StreamBuilder::reserve(CpuId cpu, std::initializer_list<std::size_t> factors,
                       std::size_t extra)
{
    RNUMA_ASSERT(cpu < ncpus(), "bad cpu ", cpu);
    auto n = reserveBound(factors, extra);
    if (n)
        wl->reserve(cpu, *n);
    cap[cpu] = n ? wl->size(cpu) + *n : SIZE_MAX;
}

void
StreamBuilder::reserveEach(std::initializer_list<std::size_t> factors,
                           std::size_t extra)
{
    for (CpuId c = 0; c < ncpus(); ++c)
        reserve(c, factors, extra);
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
    // Reservation audit: a bound is written from the generator's
    // loop counts, so a loop that changes without its bound would
    // otherwise just regrow the stream, unnoticed.
    for (CpuId c = 0; c < ncpus(); ++c) {
        if (wl->size(c) > cap[c]) {
            RNUMA_PANIC("generator '", wl->name(), "': cpu ", c,
                        " holds ", wl->size(c), " entries, past the ",
                        cap[c], " it reserved");
        }
    }
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
