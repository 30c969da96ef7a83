/** @file Unit tests for the shared-resource contention model. */

#include <gtest/gtest.h>

#include "mem/bus.hh"

namespace rnuma
{

TEST(Resource, UncontendedGrantIsImmediate)
{
    Resource r(16);
    EXPECT_EQ(r.acquire(100), 100u);
    EXPECT_EQ(r.waited(), 0u);
}

TEST(Resource, BackToBackRequestsQueue)
{
    Resource r(16);
    EXPECT_EQ(r.acquire(100), 100u);
    // Second request at the same instant waits out the occupancy.
    EXPECT_EQ(r.acquire(100), 116u);
    EXPECT_EQ(r.waited(), 16u);
}

TEST(Resource, LateRequestDoesNotWait)
{
    Resource r(16);
    r.acquire(0);
    EXPECT_EQ(r.acquire(1000), 1000u);
    EXPECT_EQ(r.waited(), 0u);
}

TEST(Resource, QueueBuildsLinearly)
{
    Resource r(10);
    for (int i = 0; i < 5; ++i)
        r.acquire(0);
    // Requests granted at 0, 10, 20, 30, 40 -> total wait 100.
    EXPECT_EQ(r.waited(), 0u + 10u + 20u + 30u + 40u);
    // The resource is next free at 50.
    EXPECT_EQ(r.acquire(0), 50u);
}

} // namespace rnuma
