#include "workload/workload.hh"

#include "common/logging.hh"

namespace rnuma
{

const Ref VectorWorkload::endRef = Ref::end();

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

VectorWorkload::VectorWorkload(std::string name, std::size_t ncpus)
    : name_(std::move(name)), streams(ncpus), cursor(ncpus, 0)
{
    RNUMA_ASSERT(ncpus >= 1, "workload needs at least one CPU");
}

const Ref &
VectorWorkload::next(CpuId cpu)
{
    RNUMA_ASSERT(cpu < streams.size(), "bad cpu ", cpu);
    auto &s = streams[cpu];
    std::size_t &c = cursor[cpu];
    if (c >= s.size())
        return endRef;
    return s[c++];
}

void
VectorWorkload::reset()
{
    for (auto &c : cursor)
        c = 0;
}

void
VectorWorkload::push(CpuId cpu, Ref r)
{
    RNUMA_ASSERT(cpu < streams.size(), "bad cpu ", cpu);
    RNUMA_ASSERT(!sealed, "cannot push after seal()");
    if (r.kind == RefKind::Mem)
        mem_refs++;
    if ((r.kind == RefKind::Mem || r.kind == RefKind::InitTouch) &&
        r.addr >= addr_end)
        addr_end = r.addr + 1;
    streams[cpu].push_back(r);
}

void
VectorWorkload::pushBarrierAll()
{
    for (CpuId c = 0; c < streams.size(); ++c)
        push(c, Ref::barrier());
}

void
VectorWorkload::seal()
{
    RNUMA_ASSERT(!sealed, "seal() called twice");
    for (auto &s : streams)
        s.push_back(Ref::end());
    sealed = true;
}

std::size_t
VectorWorkload::size(CpuId cpu) const
{
    RNUMA_ASSERT(cpu < streams.size(), "bad cpu ", cpu);
    return streams[cpu].size();
}

const Ref &
VectorWorkload::at(CpuId cpu, std::size_t i) const
{
    RNUMA_ASSERT(cpu < streams.size() && i < streams[cpu].size(),
                 "bad index");
    return streams[cpu][i];
}

void
VectorWorkload::setAddrLimit(Addr limit)
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
VectorWorkload::totalRefs() const
{
    std::size_t n = 0;
    for (const auto &s : streams)
        n += s.size();
    return n;
}

SnapshotWorkload::SnapshotWorkload(
    std::shared_ptr<const VectorWorkload> snap)
    : snap_(std::move(snap))
{
    RNUMA_ASSERT(snap_, "snapshot view over a null workload");
    RNUMA_ASSERT(snap_->sealed,
                 "snapshot view over an unsealed workload '",
                 snap_->name_, "'");
    streams_.reserve(snap_->streams.size());
    for (const auto &s : snap_->streams)
        streams_.push_back(Stream{s.data(), s.size(), 0});
}

std::size_t
SnapshotWorkload::numCpus() const
{
    return streams_.size();
}

const Ref &
SnapshotWorkload::next(CpuId cpu)
{
    RNUMA_ASSERT(cpu < streams_.size(), "bad cpu ", cpu);
    Stream &s = streams_[cpu];
    if (s.cursor >= s.size)
        return VectorWorkload::endRef;
    return s.data[s.cursor++];
}

void
SnapshotWorkload::reset()
{
    for (Stream &s : streams_)
        s.cursor = 0;
}

const std::string &
SnapshotWorkload::name() const
{
    return snap_->name_;
}

} // namespace rnuma
