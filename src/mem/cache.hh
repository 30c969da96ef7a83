/**
 * @file
 * A direct-mapped, write-back cache model with MOSI line states, the
 * only geometry the paper's machine has (Section 4: direct-mapped L1s
 * and block-cache SRAM). Instantiated as a node's processor L1 data
 * caches (one bank per CPU) and as the RAD's remote block cache
 * (rad/rnuma_rad.hh). Supports an "infinite" mode used for the
 * Figure 6 normalization baseline.
 */

#ifndef RNUMA_MEM_CACHE_HH
#define RNUMA_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/page_indexed.hh"
#include "common/types.hh"

namespace rnuma
{

/**
 * MOSI line states (the node-internal snoopy protocol is modeled
 * after the Sparc MBus protocol, per Section 4 of the paper),
 * declared weakest first: a stronger state compares greater.
 */
enum class CacheState : std::uint8_t
{
    Invalid,
    Shared,    ///< clean, possibly other copies
    Owned,     ///< dirty, responsible for supplying; other copies exist
    Modified   ///< dirty, sole copy
};

/** True for states that hold dirty data (Owned or Modified). */
bool isDirty(CacheState s);

/** True for any valid state. */
bool isValid(CacheState s);

/**
 * One cache line, packed into one 64-bit word: the block address in
 * the low 61 bits and the MOSI state in the top 3. Halving the line
 * halves the L1 banks, block caches and infinite-cache chunks a
 * Machine zeroes at construction, and puts twice the lines in a host
 * cache line. A simulated address fits in addrBits (44) bits.
 */
struct CacheLine
{
    static constexpr unsigned tagBits = 61;
    /** The tag of an empty line: odd, so no block address equals it. */
    static constexpr Addr noBlock = (Addr{1} << tagBits) - 1;

    Addr addr : tagBits;
    CacheState state : 3;

    constexpr CacheLine() : addr(noBlock), state(CacheState::Invalid) {}

    bool valid() const { return state != CacheState::Invalid; }
};

static_assert(sizeof(CacheLine) == 8, "a CacheLine is one 64-bit word");
static_assert(addrBits < CacheLine::tagBits,
              "every simulated address fits a CacheLine tag");

/**
 * The cache proper. All addresses passed in are rounded down to block
 * boundaries internally, so callers may pass raw addresses.
 *
 * A cache may hold several banks: independent caches of the same
 * geometry whose lines are stored set-major, so one set's line in
 * every bank sits side by side. A node keeps its CPUs' L1s as the
 * banks of one Cache, and a snoop or invalidation that probes every
 * L1 is one pass over setLines(), about one host cache line. find()
 * and allocate() name their bank; the default, 0, is the only bank of
 * an unbanked cache.
 */
class Cache
{
  public:
    /**
     * @param size_bytes  capacity of each bank, a power-of-two
     *                    multiple of the block size; when infinite,
     *                    the page size instead, by which lines are
     *                    allocated
     * @param block_bytes coherence block size (a power of two)
     * @param infinite    unbounded capacity, no evictions ever
     * @param banks       number of banks (must be 1 when infinite)
     */
    Cache(std::size_t size_bytes, std::size_t block_bytes,
          bool infinite = false, std::size_t banks = 1);

    /** Block-align an address. */
    Addr blockAlign(Addr a) const { return a & ~(blockBytes - 1); }

    /** Probe @p bank for a block. Returns the line or nullptr on miss. */
    CacheLine *
    find(Addr a, std::size_t bank = 0)
    {
        a = blockAlign(a);
        if (unbounded)
            return findUnbounded(a);
        CacheLine &line = lines[setIndex(a) * nbanks + bank];
        // Tag compare first: it almost always fails, and is cheaper
        // than the state load on lines that do not match.
        return line.addr == a && line.valid() ? &line : nullptr;
    }

    const CacheLine *
    find(Addr a, std::size_t bank = 0) const
    {
        return const_cast<Cache *>(this)->find(a, bank);
    }

    /**
     * The first of the banks lines of @p a's set, which sit side by
     * side: bank b's line is setLines(a)[b]. A probe of every bank
     * scans them in one pass instead of calling find() per bank.
     * Finite caches only.
     */
    CacheLine *
    setLines(Addr a)
    {
        return &lines[setIndex(blockAlign(a)) * nbanks];
    }

    /** Description of a line evicted by allocate(). */
    struct Victim
    {
        bool valid = false;
        Addr addr = invalidAddr;
        CacheState state = CacheState::Invalid;
    };

    /**
     * Allocate a line in @p bank for a block (which must not currently
     * be present there), evicting the line its set holds. The caller
     * must handle any writeback implied by the victim's dirty state.
     * The returned line holds the block with state Invalid; the
     * caller sets the state.
     */
    CacheLine *allocate(Addr a, Victim &victim, std::size_t bank = 0);

    /**
     * Invalidate a block if present; returns its prior state (Invalid
     * when absent). Bank 0 only: a banked cache's owner clears every
     * bank in one pass over setLines().
     */
    CacheState
    invalidate(Addr a)
    {
        CacheLine *line = find(a);
        if (!line)
            return CacheState::Invalid;
        const CacheState prior = line->state;
        *line = CacheLine{};
        return prior;
    }

    /** Visit every valid line of every bank (test/diagnostic use). */
    template <class F>
    void
    forEachValid(F &&fn) const
    {
        if (unbounded) {
            for (const auto &chunk : chunks)
                for (std::size_t i = 0; chunk && i < (1u << chunkShift);
                     ++i)
                    if (chunk[i].valid())
                        fn(chunk[i]);
            return;
        }
        for (const auto &line : lines)
            if (line.valid())
                fn(line);
    }

    /** Number of currently valid lines, over all banks. */
    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        forEachValid([&n](const CacheLine &) { ++n; });
        return n;
    }

  private:
    std::size_t blockBytes;
    std::size_t nbanks;
    bool unbounded;
    /**
     * find() runs tens of millions of times per figure (every L1
     * probe, snoop, and invalidation lands here), so the set index is
     * a shift and a mask: the block and set counts are powers of two.
     */
    unsigned blockShift = 0;
    std::size_t setMask = 0;

    /** Set-indexed storage (finite mode): line set * banks + bank. */
    std::vector<CacheLine> lines;
    /**
     * Infinite-mode storage: one page's lines per chunk, allocated on
     * the page's first allocate() and indexed by page number, so the
     * table shares every page-level table's maxPages cap. Lines never
     * move, so returned pointers stay valid.
     */
    PageIndexed<std::unique_ptr<CacheLine[]>> chunks;
    /** log2 of the blocks in a page (infinite mode). */
    unsigned chunkShift = 0;

    std::size_t
    setIndex(Addr a) const
    {
        return static_cast<std::size_t>(a >> blockShift) & setMask;
    }

    CacheLine *
    findUnbounded(Addr a)
    {
        const Addr block = a >> blockShift;
        CacheLine *chunk = chunks[block >> chunkShift].get();
        if (!chunk)
            return nullptr;
        CacheLine &line = chunk[block & ((1u << chunkShift) - 1)];
        return line.valid() ? &line : nullptr;
    }
};

} // namespace rnuma

#endif // RNUMA_MEM_CACHE_HH
