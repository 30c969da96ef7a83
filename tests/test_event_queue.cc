/**
 * @file
 * Unit tests for the discrete-event queue: the API behavior of the
 * per-tag winner tree, its one-pending-event-per-tag contract, and
 * ordering-parity checks that replay simulator-shaped schedules
 * through both the winner tree and the HeapEventQueue oracle and
 * assert identical pop sequences.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "heap_event_queue.hh"
#include "sim/event_queue.hh"

namespace rnuma
{

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue q(4);
    q.schedule(30, 3);
    q.schedule(10, 1);
    q.schedule(20, 2);
    EXPECT_EQ(q.pop().tag, 1u);
    EXPECT_EQ(q.pop().tag, 2u);
    EXPECT_EQ(q.pop().tag, 3u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q(10);
    q.schedule(5, 8);
    q.schedule(5, 7);
    q.schedule(5, 9);
    EXPECT_EQ(q.pop().tag, 8u);
    EXPECT_EQ(q.pop().tag, 7u);
    EXPECT_EQ(q.pop().tag, 9u);
}

TEST(EventQueue, PeekTime)
{
    EventQueue q(2);
    q.schedule(42, 0);
    q.schedule(7, 1);
    EXPECT_EQ(q.peekTime(), 7u);
    q.pop();
    EXPECT_EQ(q.peekTime(), 42u);
}

TEST(EventQueue, ProcessedAndPendingCounters)
{
    EventQueue q(2);
    q.schedule(1, 0);
    q.schedule(2, 1);
    EXPECT_EQ(q.pending(), 2u);
    q.pop();
    EXPECT_EQ(q.processed(), 1u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, PopEmptyPanics)
{
    EventQueue q(1);
    EXPECT_THROW(q.pop(), std::logic_error);
    EXPECT_THROW(q.peekTime(), std::logic_error);
}

TEST(EventQueue, InterleavedScheduleAndPop)
{
    EventQueue q(4);
    q.schedule(10, 1);
    Event e = q.pop();
    // Scheduling an earlier event after popping is fine; the queue
    // orders whatever is pending.
    q.schedule(e.when + 5, 2);
    q.schedule(e.when + 1, 3);
    q.schedule(e.when - 4, 1);
    EXPECT_EQ(q.pop().tag, 1u);
    EXPECT_EQ(q.pop().tag, 3u);
    EXPECT_EQ(q.pop().tag, 2u);
}

TEST(EventQueue, SchedulingAPendingTagTwicePanics)
{
    EventQueue q(4);
    q.schedule(10, 2);
    EXPECT_THROW(q.schedule(20, 2), std::logic_error);
    EXPECT_EQ(q.pending(), 1u);
    // Once popped, the tag is free again.
    EXPECT_EQ(q.pop().tag, 2u);
    q.schedule(20, 2);
    EXPECT_EQ(q.pop().when, 20u);
}

TEST(EventQueue, OutOfRangeTagAndZeroTagsPanic)
{
    EXPECT_THROW(EventQueue(0), std::logic_error);
    EventQueue q(3); // one padding leaf in the tree
    EXPECT_THROW(q.schedule(0, 3), std::logic_error);
    EXPECT_TRUE(q.empty());
}

namespace
{

/**
 * Drive @p tags CPUs through both queues the way Machine::run does
 * and assert identical pops. Each popped CPU either reschedules
 * itself at a simulator-shaped delta (think/bus, fill/fetch, page-op
 * scale, or the same tick), arrives at a barrier, or finishes; when
 * every live CPU waits, all are released at one tick in CPU order.
 * Every seventh tag never runs, so the tree also carries idle leaves.
 */
void
runParity(std::size_t tags, std::uint64_t seed, int steps)
{
    Rng rng(seed);
    EventQueue tree(tags);
    HeapEventQueue heap;
    std::vector<bool> waiting(tags, false);
    std::size_t live = 0, arrived = 0;
    Tick barrierMax = 0;
    for (std::uint32_t c = 0; c < tags; ++c) {
        if (c % 7 == 6)
            continue;
        tree.schedule(0, c);
        heap.schedule(0, c);
        live++;
    }
    for (int step = 0; step < steps && !heap.empty(); ++step) {
        ASSERT_EQ(tree.peekTime(), heap.peekTime()) << "step " << step;
        Event a = tree.pop();
        Event b = heap.pop();
        ASSERT_EQ(a.when, b.when) << "step " << step;
        ASSERT_EQ(a.seq, b.seq) << "step " << step;
        ASSERT_EQ(a.tag, b.tag) << "step " << step;

        const std::uint64_t shape = rng.below(100);
        if (shape < 8 || (shape < 9 && live > 2)) {
            if (shape < 8) {
                waiting[a.tag] = true;
                arrived++;
                if (a.when > barrierMax)
                    barrierMax = a.when;
            } else {
                live--; // finished: never scheduled again
            }
            if (arrived > 0 && arrived == live) {
                const Tick resume = barrierMax + 100;
                for (std::uint32_t c = 0; c < tags; ++c) {
                    if (!waiting[c])
                        continue;
                    waiting[c] = false;
                    tree.schedule(resume, c);
                    heap.schedule(resume, c);
                }
                arrived = 0;
                barrierMax = 0;
            }
        } else {
            Tick delta;
            if (shape < 70)
                delta = rng.below(16); // think-time / bus scale
            else if (shape < 90)
                delta = 60 + rng.below(400); // fill / fetch scale
            else if (shape < 96)
                delta = 3000 + rng.below(9000); // page ops
            else
                delta = 0; // a tie on the popped tick
            tree.schedule(a.when + delta, a.tag);
            heap.schedule(a.when + delta, a.tag);
        }
        ASSERT_EQ(tree.pending(), heap.pending()) << "step " << step;
    }
    while (!heap.empty()) {
        Event a = tree.pop();
        Event b = heap.pop();
        ASSERT_EQ(a.when, b.when);
        ASSERT_EQ(a.seq, b.seq);
        ASSERT_EQ(a.tag, b.tag);
    }
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.processed(), heap.processed());
}

} // namespace

TEST(EventQueueParity, PaperMachineMatchesTheHeapOracle)
{
    runParity(32, 0xeeff01, 40000);
}

TEST(EventQueueParity, LargeMachineMatchesTheHeapOracle)
{
    runParity(512, 0xeeff02, 40000);
}

TEST(EventQueueParity, NonPowerOfTwoTagCountsMatchTheHeapOracle)
{
    for (std::size_t tags : {1u, 3u, 24u, 100u})
        runParity(tags, 0xeeff03 + tags, 5000);
}

TEST(EventQueueParity, MassReleaseTiesPopInInsertionOrder)
{
    // A barrier release: every tag at one tick, scheduled in a
    // shuffled order, pops in exactly that order.
    EventQueue tree(512);
    HeapEventQueue heap;
    std::vector<std::uint32_t> order(512);
    for (std::uint32_t c = 0; c < order.size(); ++c)
        order[c] = c;
    Rng rng(0xabc123);
    for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    for (std::uint32_t c : order) {
        tree.schedule(700, c);
        heap.schedule(700, c);
    }
    for (std::uint32_t want : order) {
        Event a = tree.pop();
        Event b = heap.pop();
        ASSERT_EQ(a.tag, want);
        ASSERT_EQ(a.seq, b.seq);
        ASSERT_EQ(a.tag, b.tag);
    }
    EXPECT_TRUE(tree.empty());
}

} // namespace rnuma
