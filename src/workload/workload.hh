/**
 * @file
 * The workload abstraction: per-CPU streams of memory references,
 * barrier markers, placement-only init touches, and end markers. The
 * simulator is driven entirely by a Workload, which stands in for the
 * paper's execution-driven SPLASH-2 binaries (see docs/ARCHITECTURE.md,
 * "`src/workload` — reference streams", for the substitution argument).
 */

#ifndef RNUMA_WORKLOAD_WORKLOAD_HH
#define RNUMA_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace rnuma
{

/** Kinds of stream entries. */
enum class RefKind : std::uint8_t
{
    Mem,       ///< a load or store
    Barrier,   ///< global barrier: wait for every CPU
    InitTouch, ///< pre-parallel first-touch placement marker (free)
    End        ///< stream exhausted
};

/**
 * One stream entry, packed into one 64-bit word: a workload holds
 * tens of millions of them, so the host bytes per entry set both the
 * generation time and the sweep's resident memory. Bits 0-1 hold the
 * kind, bit 2 the write flag, bits 3-18 the think time, bits 19-62
 * the address and bit 63 a declared field that is always 0. Declared,
 * it makes a Ref a pure value: building one writes the whole word,
 * where an undeclared bit would keep whatever the word held before,
 * and every append would read that back. Build one through the
 * factories: they reject a think time above maxThink or an address
 * at or past addrEnd with a named fatal error, where assigning a
 * field would silently truncate (the fields stay public for reading
 * only). A default Ref is End.
 */
struct Ref
{
    static constexpr unsigned thinkBits = 16;
    /** Largest think time a Ref holds: 65535 cycles. */
    static constexpr std::uint64_t maxThink =
        (std::uint64_t{1} << thinkBits) - 1;
    /** One past the largest address a Ref holds: 2^44 (16 TiB). */
    static constexpr Addr addrEnd = Addr{1} << addrBits;

    RefKind kind : 2;
    bool write : 1;
    std::uint64_t think : thinkBits; ///< compute cycles before the access
    Addr addr : addrBits;            ///< global address (Mem / InitTouch)
    std::uint64_t zero : 1;          ///< always 0

    constexpr Ref() : Ref(RefKind::End, false, 0, 0) {}

    static Ref
    mem(Addr a, bool w, std::uint64_t th)
    {
        if (a >= addrEnd || th > maxThink)
            unrepresentable(a, th);
        return Ref(RefKind::Mem, w, th, a);
    }
    static Ref barrier() { return Ref(RefKind::Barrier, false, 0, 0); }
    static Ref
    touchOf(Addr a)
    {
        if (a >= addrEnd)
            unrepresentable(a, 0);
        return Ref(RefKind::InitTouch, false, 0, a);
    }
    static Ref end() { return Ref(); }

  private:
    constexpr Ref(RefKind k, bool w, std::uint64_t th, Addr a)
        : kind(k), write(w), think(th), addr(a), zero(0)
    {
    }

    /** Fatal: names the field that cannot hold @p a or @p th. */
    [[noreturn, gnu::cold]] static void unrepresentable(Addr a,
                                                        std::uint64_t th);
};

static_assert(sizeof(Ref) == 8, "a Ref is one 64-bit word");

/**
 * Per-CPU reference streams: built with push()/pushBarrierAll(), then
 * sealed, after which they are read-only. A Machine reads a sealed
 * workload in place through its own per-CPU cursors, so one const
 * Workload may back any number of runs, concurrent ones included;
 * next()/reset() are a separate sequential reader for tools and tests.
 */
class Workload
{
  public:
    Workload(std::string name, std::size_t ncpus);

    /** Number of CPU streams. */
    std::size_t numCpus() const { return streams.size(); }

    /**
     * Next entry for @p cpu, advancing this object's own cursor.
     * Returns an End ref forever once exhausted.
     */
    const Ref &next(CpuId cpu);

    /** Rewind next()'s cursors. */
    void reset();

    /** Workload name for reports. */
    const std::string &name() const { return name_; }

    /**
     * Append an entry to one CPU's stream. Inline: a generator calls
     * it once per entry, tens of millions of times per figure.
     */
    void
    push(CpuId cpu, Ref r)
    {
        RNUMA_ASSERT(cpu < streams.size(), "bad cpu ", cpu);
        RNUMA_ASSERT(!sealed_, "cannot push after seal()");
        if (r.kind == RefKind::Mem)
            mem_refs++;
        if ((r.kind == RefKind::Mem || r.kind == RefKind::InitTouch) &&
            r.addr >= addr_end)
            addr_end = r.addr + 1;
        streams[cpu].push_back(r);
    }

    /**
     * Make room for @p n more entries in @p cpu's stream, so the
     * pushes that follow never regrow it.
     */
    void reserve(CpuId cpu, std::size_t n);

    /** Append a barrier to every CPU's stream. */
    void pushBarrierAll();

    /** Append End markers to every stream (call once, when done). */
    void seal();

    /** True once seal() has run: every stream ends in an End marker. */
    bool sealed() const { return sealed_; }

    /** Stream length for a CPU (including the End marker). */
    std::size_t size(CpuId cpu) const;

    /**
     * Entry inspection. A sealed stream is contiguous up to and
     * including its End marker, so &at(cpu, 0) reads it in place.
     */
    const Ref &at(CpuId cpu, std::size_t i) const;

    /** Total entries across all CPUs. */
    std::size_t totalRefs() const;

    /**
     * Loads and stores only (no barriers, init touches, or End
     * markers). Every generator must emit at least one at any
     * scale > 0; the registry asserts it.
     */
    std::size_t memRefCount() const { return mem_refs; }

    /**
     * One past the highest legally addressable byte: a generator's
     * allocation high-water mark, or a loaded trace's recorded one.
     * 0 = unknown (a trace recorded without one).
     */
    Addr addrLimit() const { return addr_limit; }

    /**
     * Record @p limit as addrLimit() after auditing every Mem and
     * InitTouch entry against it. Fatal, naming the workload, cpu
     * and first offending entry, on any address at or beyond the
     * limit. push() tracks the highest address, so a passing audit
     * is O(1); only a failing one walks the streams.
     */
    void setAddrLimit(Addr limit);

  private:
    std::string name_;
    std::vector<std::vector<Ref>> streams;
    std::vector<std::size_t> cursor;
    std::size_t mem_refs = 0;
    Addr addr_limit = 0;
    /**
     * One past the highest Mem or InitTouch address pushed, 0 when
     * none was. Every address is below Ref::addrEnd, so the +1
     * cannot overflow.
     */
    Addr addr_end = 0;
    bool sealed_ = false;

    static const Ref endRef;
};

} // namespace rnuma

#endif // RNUMA_WORKLOAD_WORKLOAD_HH
