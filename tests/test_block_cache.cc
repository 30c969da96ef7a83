/**
 * @file
 * Machine-level test of the RAD's block cache (rad/rnuma_rad.hh):
 * how a directory downgrade leaves a node's block cache and page
 * cache.
 */

#include <gtest/gtest.h>

#include <string>

#include "rad/rnuma_rad.hh"
#include "sim/machine.hh"
#include "workload/workload.hh"

#include "test_util.hh"

namespace rnuma
{

/**
 * A read of a block another node holds writable is forwarded to the
 * owner, whose RAD keeps its copy read-only: the node loses write
 * permission but not the data.
 */
class RadDowngrade : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RadDowngrade, ForwardedReadLeavesTheOwnerAReadOnlyCopy)
{
    const std::string proto = GetParam();
    Params p = test::smallParams();
    p.numNodes = 3;
    p.cpusPerNode = 1;
    p.validate();

    const Addr page = 0;
    const Addr block = page * p.pageSize + 3 * p.blockSize;
    // Without the read, node 1 keeps the block writable.
    for (bool forwarded : {false, true}) {
        SCOPED_TRACE(forwarded ? "forwarded read" : "no read");
        Workload wl("downgrade", 3);
        wl.push(0, Ref::touchOf(page * p.pageSize)); // home: node 0
        wl.pushBarrierAll();
        wl.push(1, Ref::mem(block, true, 0)); // node 1 owns the block
        wl.pushBarrierAll();
        if (forwarded)
            wl.push(2, Ref::mem(block, false, 0)); // sent to node 1
        wl.seal();

        Machine m(p, protocolSpec(proto), wl);
        RunStats s = m.run();
        EXPECT_EQ(s.forwards, forwarded ? 1u : 0u);

        const auto &rad =
            dynamic_cast<const RNumaRad &>(m.node(1).rad());
        EXPECT_EQ(rad.hasWritePermission(block), !forwarded);
        if (proto == "scoma") {
            ASSERT_TRUE(rad.pageCache().contains(page));
            EXPECT_EQ(rad.pageCache().tag(page, 3),
                      forwarded ? FineTag::ReadOnly : FineTag::ReadWrite);
        } else {
            const CacheLine *line = rad.blockCache().find(block);
            ASSERT_NE(line, nullptr);
            EXPECT_EQ(line->state, forwarded ? CacheState::Shared
                                             : CacheState::Modified);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Protocols, RadDowngrade,
                         ::testing::Values("ccnuma", "scoma", "rnuma"));

} // namespace rnuma
