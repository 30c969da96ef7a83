/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hh"

namespace rnuma
{

TEST(Stats, RecordFetchClassifies)
{
    RunStats s;
    s.recordFetch(1, MissKind::Cold, false);
    s.recordFetch(1, MissKind::Coherence, false);
    s.recordFetch(1, MissKind::Refetch, false);
    EXPECT_EQ(s.remoteFetches, 3u);
    EXPECT_EQ(s.coldMisses, 1u);
    EXPECT_EQ(s.coherenceMisses, 1u);
    EXPECT_EQ(s.refetches, 1u);
}

TEST(Stats, ConservationOfMissKinds)
{
    RunStats s;
    for (int i = 0; i < 100; ++i) {
        s.recordFetch(static_cast<Addr>(i % 7),
                      static_cast<MissKind>(i % 3), i % 2 == 0);
    }
    EXPECT_EQ(s.coldMisses + s.coherenceMisses + s.refetches,
              s.remoteFetches);
}

TEST(Stats, RwPageClassification)
{
    RunStats s;
    // Page 1: read-only remote traffic.
    s.recordFetch(1, MissKind::Refetch, false);
    s.recordFetch(1, MissKind::Refetch, false);
    // Page 2: read-write remote traffic.
    s.recordFetch(2, MissKind::Refetch, false);
    s.recordFetch(2, MissKind::Refetch, true);
    EXPECT_FALSE(s.pages[1].readWriteShared());
    EXPECT_TRUE(s.pages[2].readWriteShared());
    // 2 of 4 refetches are on the RW page.
    EXPECT_DOUBLE_EQ(s.rwPageRefetchFraction(), 0.5);
}

TEST(Stats, RwFractionEmptyIsZero)
{
    RunStats s;
    EXPECT_DOUBLE_EQ(s.rwPageRefetchFraction(), 0.0);
}

TEST(Stats, RefetchDistributionSortedDescending)
{
    RunStats s;
    for (int i = 0; i < 3; ++i)
        s.recordFetch(10, MissKind::Refetch, false);
    s.recordFetch(20, MissKind::Refetch, false);
    for (int i = 0; i < 7; ++i)
        s.recordFetch(30, MissKind::Refetch, false);
    auto d = s.refetchDistribution();
    ASSERT_EQ(d.size(), 3u);
    EXPECT_EQ(d[0], 7u);
    EXPECT_EQ(d[1], 3u);
    EXPECT_EQ(d[2], 1u);
}

TEST(Stats, PrintMentionsHeadlineCounters)
{
    RunStats s;
    s.ticks = 1234;
    s.recordFetch(0, MissKind::Cold, false);
    std::ostringstream os;
    s.print(os);
    EXPECT_NE(os.str().find("ticks=1234"), std::string::npos);
    EXPECT_NE(os.str().find("remoteFetches=1"), std::string::npos);
}

} // namespace rnuma
