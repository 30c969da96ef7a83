#include "workload/workload.hh"

#include "common/logging.hh"

namespace rnuma
{

const Ref Workload::endRef = Ref::end();

void
Ref::unrepresentable(Addr a, std::uint64_t th)
{
    if (a >= addrEnd) {
        RNUMA_FATAL("reference address ", a, " does not fit a Ref's ",
                    addrBits, "-bit address field (addresses must be "
                    "below ", addrEnd, ")");
    }
    RNUMA_FATAL("reference think time ", th, " does not fit a Ref's ",
                thinkBits, "-bit think field (at most ", maxThink,
                " cycles)");
}

Workload::Workload(std::string name, std::size_t ncpus)
    : name_(std::move(name)), streams(ncpus), cursor(ncpus, 0)
{
    RNUMA_ASSERT(ncpus >= 1, "workload needs at least one CPU");
}

const Ref &
Workload::next(CpuId cpu)
{
    RNUMA_ASSERT(cpu < streams.size(), "bad cpu ", cpu);
    auto &s = streams[cpu];
    std::size_t &c = cursor[cpu];
    if (c >= s.size())
        return endRef;
    return s[c++];
}

void
Workload::reset()
{
    for (auto &c : cursor)
        c = 0;
}

void
Workload::reserve(CpuId cpu, std::size_t n)
{
    RNUMA_ASSERT(cpu < streams.size(), "bad cpu ", cpu);
    streams[cpu].reserve(streams[cpu].size() + n);
}

void
Workload::pushBarrierAll()
{
    for (CpuId c = 0; c < streams.size(); ++c)
        push(c, Ref::barrier());
}

void
Workload::seal()
{
    RNUMA_ASSERT(!sealed_, "seal() called twice");
    for (auto &s : streams)
        s.push_back(Ref::end());
    sealed_ = true;
}

std::size_t
Workload::size(CpuId cpu) const
{
    RNUMA_ASSERT(cpu < streams.size(), "bad cpu ", cpu);
    return streams[cpu].size();
}

const Ref &
Workload::at(CpuId cpu, std::size_t i) const
{
    RNUMA_ASSERT(cpu < streams.size() && i < streams[cpu].size(),
                 "bad index");
    return streams[cpu][i];
}

void
Workload::setAddrLimit(Addr limit)
{
    if (addr_end > limit) {
        for (CpuId c = 0; c < streams.size(); ++c) {
            for (std::size_t i = 0; i < streams[c].size(); ++i) {
                const Ref &r = streams[c][i];
                if ((r.kind == RefKind::Mem ||
                     r.kind == RefKind::InitTouch) &&
                    r.addr >= limit) {
                    RNUMA_FATAL("workload '", name_, "': cpu ", c,
                                " entry ", i, " touches ", r.addr,
                                " beyond its ", limit,
                                "-byte address limit");
                }
            }
        }
        RNUMA_PANIC("workload '", name_, "': address high-water mark ",
                    addr_end, " names no entry");
    }
    addr_limit = limit;
}

std::size_t
Workload::totalRefs() const
{
    std::size_t n = 0;
    for (const auto &s : streams)
        n += s.size();
    return n;
}

} // namespace rnuma
