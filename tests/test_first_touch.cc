/** @file Unit tests for first-touch placement. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "os/first_touch.hh"

namespace rnuma
{

TEST(FirstTouch, FirstToucherBecomesHome)
{
    FirstTouchPlacement ft;
    EXPECT_EQ(ft.touch(10, 3), 3u);
    // Later touches do not migrate the page.
    EXPECT_EQ(ft.touch(10, 5), 3u);
    EXPECT_EQ(ft.homeOf(10), 3u);
}

TEST(FirstTouch, PlacedAndCounts)
{
    FirstTouchPlacement ft;
    EXPECT_FALSE(ft.placed(1));
    ft.touch(1, 0);
    ft.touch(2, 0);
    ft.touch(3, 1);
    EXPECT_TRUE(ft.placed(1));
    EXPECT_EQ(ft.pageCount(), 3u);
    EXPECT_EQ(ft.pagesAt(0), 2u);
    EXPECT_EQ(ft.pagesAt(1), 1u);
    EXPECT_EQ(ft.pagesAt(2), 0u);
}

TEST(FirstTouch, HomeOfUnplacedPanics)
{
    FirstTouchPlacement ft;
    EXPECT_THROW(ft.homeOf(99), std::logic_error);
}

} // namespace rnuma
