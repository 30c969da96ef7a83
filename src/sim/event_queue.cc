#include "sim/event_queue.hh"

#include "common/logging.hh"

namespace rnuma
{

namespace
{

inline unsigned
ctz64(std::uint64_t x)
{
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<unsigned>(__builtin_ctzll(x));
#else
    unsigned n = 0;
    while (!(x & 1)) {
        x >>= 1;
        ++n;
    }
    return n;
#endif
}

} // namespace

//--------------------------------------------------------------------------
// HeapEventQueue (reference implementation)
//--------------------------------------------------------------------------

void
HeapEventQueue::schedule(Tick when, std::uint32_t tag)
{
    heap.push(Event{when, seqCounter++, tag});
}

Event
HeapEventQueue::pop()
{
    RNUMA_ASSERT(!heap.empty(), "pop from empty event queue");
    Event e = heap.top();
    heap.pop();
    popCount++;
    return e;
}

//--------------------------------------------------------------------------
// EventQueue (indexed calendar over a far-future heap)
//--------------------------------------------------------------------------

namespace
{

/** Round up to a power of two, with a floor of 64 (one bit word). */
std::size_t
roundWindow(std::size_t want)
{
    RNUMA_ASSERT(want > 0, "event calendar window must be nonzero");
    // One bucket per tick: anything past a few million ticks of span
    // is a misconfiguration (and doubling past the top power of two
    // would wrap to zero and loop).
    constexpr std::size_t maxWindow = std::size_t{1} << 30;
    RNUMA_ASSERT(want <= maxWindow,
                 "event calendar window ", want, " exceeds the ",
                 maxWindow, "-tick ceiling");
    std::size_t w = 64;
    while (w < want)
        w *= 2;
    return w;
}

} // namespace

EventQueue::EventQueue(std::size_t window)
    : window_(roundWindow(window)), bitWords_(window_ / 64),
      near_(window_), bits_(bitWords_, 0)
{
}

std::size_t
EventQueue::autoWindow(Tick typical_max_delta)
{
    constexpr std::size_t cap = std::size_t{1} << 16;
    if (typical_max_delta >= cap)
        return cap;
    std::size_t want =
        static_cast<std::size_t>(typical_max_delta) + 1;
    return roundWindow(want < 64 ? 64 : want);
}

void
EventQueue::schedule(Tick when, std::uint32_t tag)
{
    Event e{when, seqCounter_++, tag};
    if (when < cursor_) {
        // Only reachable through direct API use; the simulator never
        // schedules before the event it is processing.
        past_.push(e);
    } else if (when - cursor_ < window_) {
        const std::size_t idx = when & (window_ - 1);
        Bucket &b = near_[idx];
        if (b.empty())
            bits_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        b.ev.push_back(e);
        nearCount_++;
        // Keep the memo pointing at the earliest bucket.
        if (hint_ != noHint && idx != hint_ &&
            when < near_[hint_].ev[near_[hint_].head].when)
            hint_ = idx;
    } else {
        far_.push(e);
    }
    size_++;
}

std::size_t
EventQueue::nextBucket() const
{
    const std::size_t start = cursor_ & (window_ - 1);
    const std::size_t w0 = start >> 6;
    const std::uint64_t high = bits_[w0] & (~0ULL << (start & 63));
    if (high)
        return (w0 << 6) + ctz64(high);
    // Wrap: the remaining candidates are offsets past `start` in
    // later words, or before it (near the window's far edge) back in
    // w0's low bits, which the i == bitWords_ pass picks up.
    for (std::size_t i = 1; i <= bitWords_; ++i) {
        const std::size_t w = (w0 + i) & (bitWords_ - 1);
        if (bits_[w])
            return (w << 6) + ctz64(bits_[w]);
    }
    RNUMA_PANIC("event calendar bitmap out of sync");
}

const Event *
EventQueue::nearFront() const
{
    if (nearCount_ == 0)
        return nullptr;
    if (hint_ == noHint)
        hint_ = nextBucket();
    const Bucket &b = near_[hint_];
    return &b.ev[b.head];
}

Event
EventQueue::pop()
{
    RNUMA_ASSERT(size_ > 0, "pop from empty event queue");
    Event e;
    if (!past_.empty()) {
        // Past events precede every near/far event (their when is
        // strictly below cursor_, the floor of both structures).
        e = past_.top();
        past_.pop();
    } else {
        const Event *n = nearFront();
        if (n && (far_.empty() || eventBefore(*n, far_.top()))) {
            e = *n;
            const std::size_t idx = e.when & (window_ - 1);
            Bucket &b = near_[idx];
            b.head++;
            if (b.empty()) {
                b.ev.clear();
                b.head = 0;
                bits_[idx >> 6] &=
                    ~(std::uint64_t{1} << (idx & 63));
                hint_ = noHint;
            }
            nearCount_--;
            cursor_ = e.when;
        } else {
            // The far heap's minimum beats (or ties, by seq) the
            // calendar's front, so the merged order stays exact.
            e = far_.top();
            far_.pop();
            cursor_ = e.when;
        }
    }
    size_--;
    popCount_++;
    return e;
}

Tick
EventQueue::peekTime() const
{
    RNUMA_ASSERT(size_ > 0, "peek into empty event queue");
    if (!past_.empty())
        return past_.top().when;
    const Event *n = nearFront();
    if (n && (far_.empty() || eventBefore(*n, far_.top())))
        return n->when;
    return far_.top().when;
}

} // namespace rnuma
