/**
 * @file
 * The discrete-event engine. CPUs are re-scheduled after every shared
 * resource interaction (L1 miss), so all bus, directory, and network
 * activity is processed in global time order; L1 hits are accumulated
 * arithmetically without events.
 *
 * Pop order is strictly (when, seq): time order with deterministic
 * FIFO tie-breaking by insertion order.
 *
 * The machine never has more than one event pending per CPU: step()
 * reschedules the CPU it was popped for at most once, and a barrier
 * release reschedules only CPUs that are waiting and so have none.
 * The queue is therefore one slot per tag with a winner tree over the
 * slots: every internal node holds the earliest event of its subtree,
 * so the root is the next event. schedule() and pop() each replay one
 * leaf-to-root path, log2(tags) comparisons (5 on the paper's 32 CPUs,
 * 9 at 512). The tests check the pop sequence against a plain
 * std::priority_queue oracle (tests/heap_event_queue.hh).
 */

#ifndef RNUMA_SIM_EVENT_QUEUE_HH
#define RNUMA_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace rnuma
{

/** One scheduled event: a CPU resumes at a tick. */
struct Event
{
    Tick when = 0;
    std::uint64_t seq = 0; ///< insertion order: deterministic ties
    std::uint32_t tag = 0; ///< payload (the CPU id)
};

/** At most one pending event per tag, in a winner tree (see above). */
class EventQueue
{
  public:
    /** @param tags number of tags (0..tags-1); fatal when 0. */
    explicit EventQueue(std::size_t tags);

    /**
     * Schedule @p tag to run at @p when. Fatal if @p tag is out of
     * range or already has an event pending.
     */
    void
    schedule(Tick when, std::uint32_t tag)
    {
        RNUMA_ASSERT(tag < tags_, "event tag ", tag, " out of range");
        Key &leaf = key_[leaves_ + tag];
        RNUMA_ASSERT(leaf == idle, "tag ", tag,
                     " already has an event pending");
        RNUMA_ASSERT(seqCounter_ < seqLimit_, "event sequence overflow");
        leaf = Key{when} << 64 | Key{seqCounter_++ << tagBits_ | tag};
        size_++;
        replay(tag);
    }

    /** Any events pending? */
    bool empty() const { return size_ == 0; }

    /** Pop the earliest event (ties broken by insertion order). */
    Event
    pop()
    {
        RNUMA_ASSERT(size_ > 0, "pop from empty event queue");
        const Key k = key_[1];
        const auto low = static_cast<std::uint64_t>(k);
        const auto tag = static_cast<std::uint32_t>(low & (leaves_ - 1));
        key_[leaves_ + tag] = idle;
        size_--;
        popCount_++;
        replay(tag);
        return Event{static_cast<Tick>(k >> 64), low >> tagBits_, tag};
    }

    /** Tick of the earliest pending event (queue must not be empty). */
    Tick
    peekTime() const
    {
        RNUMA_ASSERT(size_ > 0, "peek into empty event queue");
        return static_cast<Tick>(key_[1] >> 64);
    }

    /** Events processed so far. */
    std::uint64_t processed() const { return popCount_; }

    /** Events currently pending. */
    std::size_t pending() const { return size_; }

  private:
    /**
     * An event as one integer: when in the high word, then seq, then
     * the tag in the low tagBits_ bits. Integer order is (when, seq)
     * order (seqs are unique, so the tag never decides), and a match
     * is one compare and a conditional move, with no branch to
     * mispredict.
     */
    __extension__ typedef unsigned __int128 Key;

    /** The key of a tag with nothing pending: loses every match. */
    static constexpr Key idle = ~Key{0};

    /** Re-run the matches on the path from @p tag's leaf to the root. */
    void
    replay(std::uint32_t tag)
    {
        std::size_t n = leaves_ + tag;
        Key k = key_[n];
        for (; n > 1; n >>= 1) {
            const Key sib = key_[n ^ 1];
            k = sib < k ? sib : k;
            key_[n >> 1] = k;
        }
    }

    std::size_t tags_;
    std::size_t leaves_ = 1; ///< tags_ rounded up to a power of two
    unsigned tagBits_ = 0;   ///< log2(leaves_)
    std::uint64_t seqLimit_; ///< seqs must fit beside the tag
    /**
     * The tree, heap-numbered from 1: node n holds the earliest key
     * of its subtree, node leaves_ + t is tag t's own slot, and
     * leaves past tags_ stay idle.
     */
    std::vector<Key> key_;
    std::size_t size_ = 0;
    std::uint64_t seqCounter_ = 0;
    std::uint64_t popCount_ = 0;
};

inline EventQueue::EventQueue(std::size_t tags) : tags_(tags)
{
    RNUMA_ASSERT(tags > 0, "event queue needs at least one tag");
    RNUMA_ASSERT(tags <= std::size_t{1} << 31, "event queue of ", tags,
                 " tags is too large");
    while (leaves_ < tags) {
        leaves_ *= 2;
        tagBits_++;
    }
    seqLimit_ = ~std::uint64_t{0} >> tagBits_;
    key_.assign(2 * leaves_, idle);
}

} // namespace rnuma

#endif // RNUMA_SIM_EVENT_QUEUE_HH
