/**
 * @file
 * The ordering oracle for EventQueue: a plain std::priority_queue of
 * events in (when, seq) order, with no limit on events per tag. The
 * event-queue tests replay the same schedule through both and assert
 * identical pop sequences.
 */

#ifndef RNUMA_TESTS_HEAP_EVENT_QUEUE_HH
#define RNUMA_TESTS_HEAP_EVENT_QUEUE_HH

#include <queue>
#include <vector>

#include "sim/event_queue.hh"

namespace rnuma
{

/** Strict (when, seq) order: the pop order EventQueue promises. */
inline bool
eventBefore(const Event &a, const Event &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
}

class HeapEventQueue
{
  public:
    /** Schedule @p tag to run at @p when. */
    void
    schedule(Tick when, std::uint32_t tag)
    {
        heap.push(Event{when, seqCounter++, tag});
    }

    bool empty() const { return heap.empty(); }

    /** Pop the earliest event (ties broken by insertion order). */
    Event
    pop()
    {
        RNUMA_ASSERT(!heap.empty(), "pop from empty event queue");
        Event e = heap.top();
        heap.pop();
        popCount++;
        return e;
    }

    Tick peekTime() const { return heap.top().when; }
    std::uint64_t processed() const { return popCount; }
    std::size_t pending() const { return heap.size(); }

  private:
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return eventBefore(b, a);
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> heap;
    std::uint64_t seqCounter = 0;
    std::uint64_t popCount = 0;
};

} // namespace rnuma

#endif // RNUMA_TESTS_HEAP_EVENT_QUEUE_HH
