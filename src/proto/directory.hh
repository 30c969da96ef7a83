/**
 * @file
 * Directory state for the DSM coherence protocol. Every cache block
 * has an entry at its home node tracking sharers, the exclusive
 * owner, and the extra "prior owner" state the paper adds so the
 * directory can detect refetches of read-write blocks that were
 * voluntarily written back (Section 3.1).
 *
 * The sharer-tracking representation is pluggable (SharerSet,
 * selected by Params::dirFormat): the paper's exact full-map bit
 * vector, a limited-pointer Dir_iB that keeps up to i exact node ids
 * and degrades to broadcast on overflow, or a coarse vector with one
 * bit per r-node region — the standard post-ISCA-97 scaling fixes
 * that make directory memory O(sharers) instead of O(nodes). Both
 * sparse formats over-approximate (they may name non-sharers but
 * never miss a true sharer), so correctness is preserved and the
 * cost of sparseness shows up where it does in hardware: extra
 * invalidation traffic.
 *
 * The host layout is separate from the modeled hardware entry
 * (DirConfig::entryBits()). Each Directory sizes its sets once from
 * the configured machine: ⌈N/64⌉ machine words per node set, and
 * ⌈⌈N/r⌉/64⌉ per coarse-vector set. A limited-pointer set is a node
 * bitmap whose population is the pointer count; broadcast sets every
 * bit. So the sets cost host memory in proportion to the machine,
 * and every walk is a bit-scan over the words.
 */

#ifndef RNUMA_PROTO_DIRECTORY_HH
#define RNUMA_PROTO_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>

#include "common/geometry.hh"
#include "common/page_indexed.hh"
#include "common/params.hh"
#include "common/types.hh"

namespace rnuma
{

/** Directory sizing/format configuration, derived from Params. */
struct DirConfig
{
    SharerFormat format = SharerFormat::FullMap;
    /** Nodes the machine actually has (bounds broadcast costs). */
    std::size_t nodes = maxNodes;
    /** Exact pointers per entry (LimitedPointer). */
    std::size_t pointers = 4;
    /** Nodes per region bit (CoarseVector). */
    std::size_t regionSize = 8;

    static DirConfig
    fromParams(const Params &p)
    {
        DirConfig c;
        c.format = p.dirFormat;
        c.nodes = p.numNodes;
        c.pointers = p.dirPointers;
        c.regionSize = p.dirRegionSize;
        return c;
    }

    /**
     * Modeled hardware bits per directory entry: the two sharer sets
     * (sharers + prior) in the configured format plus the owner
     * field. Full-map costs 2 bits per node; limited-pointer costs
     * i exact pointers plus an overflow bit per set; coarse-vector
     * one bit per region. (The `touched` set is simulator
     * classification state, not modeled hardware, and is excluded.)
     */
    std::size_t
    entryBits() const
    {
        const std::size_t owner_bits = ceilLog2(nodes) + 1;
        switch (format) {
          case SharerFormat::FullMap:
            return 2 * nodes + owner_bits;
          case SharerFormat::LimitedPointer:
            return 2 * (pointers * ceilLog2(nodes) + 1) + owner_bits;
          case SharerFormat::CoarseVector:
            return 2 * ((nodes + regionSize - 1) / regionSize) +
                owner_bits;
        }
        return 0;
    }
};

/** Format and host width of one kind of set, fixed per Directory. */
struct SetShape
{
    SharerFormat format;
    std::uint32_t nodes;
    std::uint32_t pointers;
    std::uint32_t regionSize;
    /** Machine words of node bits, or region bits (CoarseVector). */
    std::uint32_t words;
};

/**
 * A view of one set of node ids in a directory entry. Full-map is
 * exact; limited-pointer and coarse-vector are conservative
 * over-approximations: test() may report a node that was never
 * set(), but a node that was set() and not individually reset() is
 * always reported. Degradation rules:
 *
 *  - LimitedPointer: up to `pointers` exact ids (the bitmap's
 *    population); one more distinct set() flips the entry to
 *    broadcast, which sets every node's bit (test() and forEach()
 *    report every node). Re-setting a present node is free.
 *    reset(n) of one node cannot un-broadcast; only a full reset()
 *    (protocol-wide invalidation/flush) clears the overflow.
 *  - CoarseVector: one bit per region of `regionSize` nodes;
 *    reset(n) is a no-op because other sharers may map to the same
 *    region bit.
 *
 * The words and the overflow flag belong to the entry; the view is
 * built per call by Directory::sharers()/prior()/touched().
 */
class SharerSet
{
  public:
    SharerSet(const SetShape &shape, std::uint64_t *words,
              std::uint32_t *flags, std::uint32_t overflow_bit)
        : shape_(&shape), w_(words), flags_(flags), ovf_(overflow_bit)
    {
    }

    void
    set(NodeId n)
    {
        switch (shape_->format) {
          case SharerFormat::FullMap:
            setBit(n);
            return;
          case SharerFormat::LimitedPointer:
            if (overflowed() || testBit(n))
                return;
            if (population() < shape_->pointers) {
                setBit(n);
            } else {
                // Dir_iB: the i+1'th distinct sharer flips the
                // entry to broadcast.
                std::fill_n(w_, shape_->words, ~std::uint64_t{0});
                if (shape_->nodes % 64)
                    w_[shape_->words - 1] =
                        (std::uint64_t{1} << (shape_->nodes % 64)) - 1;
                *flags_ |= ovf_;
            }
            return;
          case SharerFormat::CoarseVector:
            setBit(n / shape_->regionSize);
            return;
        }
    }

    /** Remove one node, where the representation can express that. */
    void
    reset(NodeId n)
    {
        switch (shape_->format) {
          case SharerFormat::FullMap:
            clearBit(n);
            return;
          case SharerFormat::LimitedPointer:
            if (!overflowed())
                clearBit(n);
            return;
          case SharerFormat::CoarseVector:
            // Cannot clear a region bit: other sharers may map to it.
            return;
        }
    }

    /** Clear the whole set (always exact, in every format). */
    void
    reset()
    {
        std::fill_n(w_, shape_->words, 0);
        *flags_ &= ~ovf_;
    }

    bool
    test(NodeId n) const
    {
        if (shape_->format == SharerFormat::CoarseVector)
            return testBit(n / shape_->regionSize);
        return testBit(n);
    }

    bool
    none() const
    {
        for (std::uint32_t i = 0; i < shape_->words; ++i)
            if (w_[i])
                return false;
        return true;
    }

    /**
     * True when the set could report no node other than @p n, which
     * is exactly what clearing @p n with reset(n) and asking none()
     * answers: a broadcast or any coarse region bit is never "only
     * @p n".
     */
    bool
    noneExcept(NodeId n) const
    {
        if (shape_->format == SharerFormat::CoarseVector)
            return none();
        if (overflowed())
            return false;
        for (std::uint32_t i = 0; i < shape_->words; ++i)
            if (w_[i] & ~(i == n / 64 ? mask(n) : 0))
                return false;
        return true;
    }

    /**
     * Call @p f(node) for every node test() reports, in ascending
     * order: a bit-scan of the words. A broadcast visits every node;
     * a coarse region expands to its nodes, clipped at the machine.
     */
    template <class F>
    void
    forEach(F &&f) const
    {
        if (shape_->format != SharerFormat::CoarseVector) {
            scanBits(f);
            return;
        }
        const std::uint32_t r = shape_->regionSize;
        scanBits([&](std::uint32_t region) {
            const NodeId first = region * r;
            const NodeId last = std::min(first + r, shape_->nodes);
            for (NodeId n = first; n < last; ++n)
                f(n);
        });
    }

    /** A limited-pointer set that has degraded to broadcast. */
    bool overflowed() const { return (*flags_ & ovf_) != 0; }

  private:
    static std::uint64_t mask(std::uint32_t b) { return 1ull << (b % 64); }
    bool testBit(std::uint32_t b) const { return w_[b / 64] & mask(b); }
    void setBit(std::uint32_t b) { w_[b / 64] |= mask(b); }
    void clearBit(std::uint32_t b) { w_[b / 64] &= ~mask(b); }

    std::size_t
    population() const
    {
        std::size_t pop = 0;
        for (std::uint32_t i = 0; i < shape_->words; ++i)
            pop += static_cast<std::size_t>(__builtin_popcountll(w_[i]));
        return pop;
    }

    template <class F>
    void
    scanBits(F &&f) const
    {
        for (std::uint32_t i = 0; i < shape_->words; ++i)
            for (std::uint64_t w = w_[i]; w; w &= w - 1)
                f(static_cast<std::uint32_t>(
                    i * 64 + static_cast<unsigned>(__builtin_ctzll(w))));
    }

    const SetShape *shape_;
    std::uint64_t *w_;
    std::uint32_t *flags_;
    std::uint32_t ovf_;
};

/**
 * Directory entry header for one coherence block. Its three sets live
 * in the words that trail it in the Directory's group arena, read
 * through Directory::sharers(), prior() and touched():
 *
 *  - sharers: nodes the directory believes hold a copy. Read-only
 *    copies are evicted silently (non-notifying protocol), so a bit
 *    may be stale — which is precisely how read refetches are
 *    detected: a request from a node whose bit is still set means
 *    the node lost its copy to capacity or conflict, not coherence.
 *  - prior: nodes that previously held the block exclusively and
 *    voluntarily wrote it back (block-cache eviction). A request from
 *    such a node is a refetch of a read-write block.
 *  - touched: nodes that have ever fetched the block (cold-miss
 *    detection). Simulator classification state, always exact and
 *    never cleared — not part of the modeled hardware entry
 *    (DirConfig::entryBits()). A node gets a copy of a block only
 *    through a fetch (on-node transfers, relocations and L1
 *    writebacks all start from a copy the node already holds), so a
 *    held copy implies the node's touched bit. GlobalProtocol::fetch
 *    relies on this to make invalidation downcalls only into touched
 *    nodes.
 */
struct alignas(std::uint64_t) DirEntry
{
    /** Node holding the block exclusively (dirty), if any. */
    NodeId owner = invalidNode;

    bool hasOwner() const { return owner != invalidNode; }

  private:
    friend class Directory;
    /** Limited-pointer broadcast flags of sharers and prior. */
    std::uint32_t overflow_ = 0;
};

static_assert(sizeof(DirEntry) == sizeof(std::uint64_t),
              "a DirEntry header is one arena word");

/**
 * The directory for the whole machine, keyed by block address. In
 * hardware each home node holds the slice for its own pages; a single
 * store is behaviorally identical and simpler.
 *
 * Storage is a page-grouped arena rather than a per-block map: the
 * first touch of any block on a page allocates one zeroed group
 * holding that page's live bits and `blocks_per_page` records, each a
 * DirEntry header followed by its sharers, prior and touched words.
 * A page-indexed table of group pointers finds a page's group, and
 * consecutive blocks of a page — the access pattern the workloads
 * overwhelmingly produce — land in adjacent memory. Groups are never
 * resized or erased, so entry references stay valid for the
 * Directory's lifetime (the protocol holds a DirEntry reference
 * across coherence callbacks that may create entries for other
 * blocks).
 *
 * All block addresses passed in must be block-aligned, as every
 * protocol call site guarantees (fetch/writeback/flushBlock align
 * before lookup).
 */
class Directory
{
  public:
    /**
     * @param block_bytes     coherence block size (power of two)
     * @param blocks_per_page grouping factor; rounded down to a
     *        power of two. The defaults degenerate to one entry per
     *        group (a plain per-block map), which is what the
     *        geometry-free unit tests construct.
     * @param cfg             sharer-set format; defaults to the
     *        exact full-map the paper models.
     */
    explicit Directory(std::size_t block_bytes = 1,
                       std::size_t blocks_per_page = 1,
                       DirConfig cfg = {})
        : cfg_(cfg),
          setShape_{cfg.format, u32(cfg.nodes), u32(cfg.pointers),
                    u32(cfg.regionSize),
                    wordsFor(cfg.format == SharerFormat::CoarseVector
                                 ? (cfg.nodes + cfg.regionSize - 1) /
                                     cfg.regionSize
                                 : cfg.nodes)},
          nodeShape_{SharerFormat::FullMap, u32(cfg.nodes), 0, 1,
                     wordsFor(cfg.nodes)},
          stride_(1 + 2 * setShape_.words + nodeShape_.words)
    {
        blockShift_ = ceilLog2(block_bytes);
        std::size_t group = 1;
        while (group * 2 <= blocks_per_page)
            group *= 2;
        groupBlocks_ = group;
        groupShift_ = ceilLog2(groupBlocks_);
        idxMask_ = groupBlocks_ - 1;
        liveWords_ = wordsFor(groupBlocks_);
    }

    /** Find-or-create the entry for a block address. */
    DirEntry &
    entry(Addr block)
    {
        const Addr bi = block >> blockShift_;
        std::unique_ptr<std::uint64_t[]> &ref =
            groups_.slot(bi >> groupShift_);
        if (!ref)
            ref.reset(new std::uint64_t[liveWords_ +
                                        groupBlocks_ * stride_]());
        std::uint64_t *g = ref.get();
        const std::size_t idx =
            static_cast<std::size_t>(bi) & idxMask_;
        std::uint64_t *rec = g + liveWords_ + idx * stride_;
        std::uint64_t &live = g[idx / 64];
        const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
        if (!(live & bit)) {
            live |= bit;
            ++liveCount_;
            return *new (rec) DirEntry;
        }
        return *std::launder(reinterpret_cast<DirEntry *>(rec));
    }

    /** Read-only probe; nullptr when the block was never touched. */
    const DirEntry *
    peek(Addr block) const
    {
        const Addr bi = block >> blockShift_;
        const std::uint64_t *g = groups_[bi >> groupShift_].get();
        if (!g)
            return nullptr;
        return record(g, static_cast<std::size_t>(bi) & idxMask_);
    }

    /**
     * Call @p f(block, entry) for every block with directory state,
     * in ascending address order (invariant checks and diagnostics).
     */
    template <class F>
    void
    forEachEntry(F &&f) const
    {
        for (Addr gi = 0; gi < groups_.size(); ++gi) {
            const std::uint64_t *g = groups_[gi].get();
            for (std::size_t idx = 0; g && idx < groupBlocks_; ++idx) {
                if (const DirEntry *e = record(g, idx))
                    f(((gi << groupShift_) | idx) << blockShift_, *e);
            }
        }
    }

    /** @name Views of an entry's sets (see DirEntry). */
    /// @{
    SharerSet sharers(DirEntry &e) { return view(e, 0); }
    SharerSet prior(DirEntry &e) { return view(e, 1); }
    SharerSet touched(DirEntry &e) { return view(e, 2); }
    const SharerSet sharers(const DirEntry &e) const { return view(e, 0); }
    const SharerSet prior(const DirEntry &e) const { return view(e, 1); }
    const SharerSet touched(const DirEntry &e) const { return view(e, 2); }
    /// @}

    /** Number of blocks with directory state. */
    std::size_t size() const { return liveCount_; }

    const DirConfig &config() const { return cfg_; }

    /**
     * Host bytes one entry costs in its group (header, the three
     * sets' words and its share of the live bits), rounded up — the
     * simulator's footprint, not the modeled entryBits().
     */
    std::size_t
    hostBytesPerEntry() const
    {
        const std::size_t group_bytes = sizeof(std::uint64_t) *
            (liveWords_ + groupBlocks_ * stride_);
        return (group_bytes + groupBlocks_ - 1) / groupBlocks_;
    }

    /**
     * Modeled directory storage: live entries times the per-entry
     * hardware cost of the configured format — the number the
     * scaling figure reports to show sparse formats are O(sharers),
     * not O(nodes).
     */
    std::uint64_t
    modeledStorageBits() const
    {
        return static_cast<std::uint64_t>(liveCount_) *
            static_cast<std::uint64_t>(cfg_.entryBits());
    }

  private:
    static std::uint32_t u32(std::size_t v) { return std::uint32_t(v); }

    /** Entry @p idx of group @p g; nullptr when it is not live. */
    const DirEntry *
    record(const std::uint64_t *g, std::size_t idx) const
    {
        if (!((g[idx / 64] >> (idx % 64)) & 1))
            return nullptr;
        return std::launder(reinterpret_cast<const DirEntry *>(
            g + liveWords_ + idx * stride_));
    }

    static std::uint32_t
    wordsFor(std::size_t bits)
    {
        return u32((bits + 63) / 64);
    }

    /**
     * View of set @p which (sharers, prior, touched) of @p e: the
     * set words trail the entry's one-word header in its record. The
     * touched set is exact in every format and never overflows.
     */
    SharerSet
    view(const DirEntry &e, unsigned which) const
    {
        auto &m = const_cast<DirEntry &>(e);
        std::uint64_t *w = reinterpret_cast<std::uint64_t *>(&m + 1) +
            which * setShape_.words;
        if (which == 2)
            return {nodeShape_, w, &m.overflow_, 0};
        return {setShape_, w, &m.overflow_, 1u << which};
    }

    DirConfig cfg_;
    SetShape setShape_;
    SetShape nodeShape_;
    /** Words per record: header, sharers, prior, touched. */
    std::size_t stride_;
    unsigned blockShift_ = 0;
    std::size_t groupBlocks_ = 1;
    unsigned groupShift_ = 0;
    std::size_t idxMask_ = 0;
    /** Leading live-bit words of each group. */
    std::size_t liveWords_ = 1;
    /**
     * Each page's live bits and records, one zeroed allocation that
     * is never touched again, so DirEntry references are stable.
     */
    PageIndexed<std::unique_ptr<std::uint64_t[]>> groups_;
    std::size_t liveCount_ = 0;
};

} // namespace rnuma

#endif // RNUMA_PROTO_DIRECTORY_HH
