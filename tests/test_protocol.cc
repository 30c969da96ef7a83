/**
 * @file
 * Unit tests for the home-node coherence protocol: miss
 * classification (the refetch detection at the heart of R-NUMA),
 * invalidation and forwarding behavior, and the composed Table 2
 * latencies.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/params.hh"
#include "mem/memory.hh"
#include "net/network.hh"
#include "proto/protocol.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

/** Every page homes on node 0. */
class HomeZero : public Placement
{
  public:
    NodeId homeOf(Addr) const override { return 0; }
};

/** Records directory downcalls; reports dirtiness on request. */
class RecordingSink : public CoherenceSink
{
  public:
    std::vector<std::pair<NodeId, Addr>> invalidated;
    std::vector<std::pair<NodeId, Addr>> downgraded;
    bool reportDirty = false;

    bool
    invalidateNodeCopy(NodeId node, Addr block) override
    {
        invalidated.emplace_back(node, block);
        return reportDirty;
    }

    void
    downgradeNodeCopy(NodeId node, Addr block) override
    {
        downgraded.emplace_back(node, block);
    }
};

class ProtocolTest : public ::testing::Test
{
  protected:
    explicit ProtocolTest(Params params = Params::base())
        : p(params),
          net(p.numNodes, p.netLatency, p.niOccupancy)
    {
        for (std::size_t i = 0; i < p.numNodes; ++i)
            mems.push_back(std::make_unique<Memory>(p.dramAccess,
                                                    p.blockSize));
        std::vector<Memory *> ptrs;
        for (auto &m : mems)
            ptrs.push_back(m.get());
        proto = std::make_unique<GlobalProtocol>(p, net, place, sink,
                                                 ptrs);
    }

    Params p;
    Network net;
    HomeZero place;
    RecordingSink sink;
    std::vector<std::unique_ptr<Memory>> mems;
    std::unique_ptr<GlobalProtocol> proto;

    static constexpr Addr blk = 0x2000;
};

} // namespace

TEST_F(ProtocolTest, FirstFetchIsCold)
{
    FetchResult r = proto->fetch(0, 1, blk, ReqType::GetS);
    EXPECT_EQ(r.kind, MissKind::Cold);
}

TEST_F(ProtocolTest, SilentEvictionRefetchDetected)
{
    proto->fetch(0, 1, blk, ReqType::GetS);
    // The node silently dropped its read-only copy; the directory
    // still lists it as a sharer, so the re-request is a refetch
    // (Section 3.1).
    FetchResult r = proto->fetch(1000, 1, blk, ReqType::GetS);
    EXPECT_EQ(r.kind, MissKind::Refetch);
}

TEST_F(ProtocolTest, InvalidationLeadsToCoherenceMiss)
{
    proto->fetch(0, 1, blk, ReqType::GetS);
    FetchResult w = proto->fetch(1000, 2, blk, ReqType::GetX);
    EXPECT_EQ(w.invalidations, 1);
    ASSERT_EQ(sink.invalidated.size(), 1u);
    EXPECT_EQ(sink.invalidated[0].first, 1u);
    // Node 1 lost its copy to coherence, not capacity.
    FetchResult r = proto->fetch(2000, 1, blk, ReqType::GetS);
    EXPECT_EQ(r.kind, MissKind::Coherence);
}

TEST_F(ProtocolTest, VoluntaryWritebackMakesReadWriteRefetch)
{
    proto->fetch(0, 1, blk, ReqType::GetX);
    // Block-cache eviction of the dirty block: voluntary writeback.
    proto->writeback(500, 1, blk);
    const DirEntry *e = proto->directory().peek(blk);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->hasOwner());
    EXPECT_TRUE(proto->directory().prior(*e).test(1));
    // Re-request from the prior owner is a refetch (the extra
    // directory state of Section 3.1).
    FetchResult r = proto->fetch(1000, 1, blk, ReqType::GetX);
    EXPECT_EQ(r.kind, MissKind::Refetch);
    EXPECT_FALSE(proto->directory()
                     .prior(*proto->directory().peek(blk))
                     .test(1));
}

TEST_F(ProtocolTest, NotifyingFlushPreventsRefetch)
{
    proto->fetch(0, 1, blk, ReqType::GetS);
    // S-COMA page replacement notifies the home.
    proto->flushBlock(500, 1, blk);
    FetchResult r = proto->fetch(1000, 1, blk, ReqType::GetS);
    EXPECT_NE(r.kind, MissKind::Refetch);
    EXPECT_EQ(r.kind, MissKind::Coherence);
}

TEST_F(ProtocolTest, FlushFromDirtyOwnerClearsOwnership)
{
    proto->fetch(0, 1, blk, ReqType::GetX);
    proto->flushBlock(500, 1, blk);
    const DirEntry *e = proto->directory().peek(blk);
    EXPECT_FALSE(e->hasOwner());
    EXPECT_FALSE(proto->directory().sharers(*e).test(1));
}

TEST_F(ProtocolTest, UpgradeIsPermissionTrafficNotRefetch)
{
    proto->fetch(0, 1, blk, ReqType::GetS);
    proto->fetch(100, 2, blk, ReqType::GetS);
    FetchResult r = proto->fetch(1000, 1, blk, ReqType::Upgrade);
    EXPECT_EQ(r.kind, MissKind::Coherence);
    EXPECT_EQ(r.invalidations, 1); // node 2 loses its copy
    EXPECT_TRUE(proto->nodeOwns(1, blk));
}

TEST_F(ProtocolTest, WriteInvalidatesAllOtherSharers)
{
    proto->fetch(0, 1, blk, ReqType::GetS);
    proto->fetch(10, 2, blk, ReqType::GetS);
    proto->fetch(20, 3, blk, ReqType::GetS);
    sink.invalidated.clear();
    FetchResult w = proto->fetch(1000, 4, blk, ReqType::GetX);
    EXPECT_EQ(w.invalidations, 3);
    EXPECT_EQ(sink.invalidated.size(), 3u);
    const DirEntry *e = proto->directory().peek(blk);
    EXPECT_EQ(e->owner, 4u);
    EXPECT_EQ(test::sharerCount(proto->directory().sharers(*e)), 1u);
    EXPECT_TRUE(proto->directory().sharers(*e).test(4));
}

TEST_F(ProtocolTest, ThreeHopForwardFromDirtyOwner)
{
    proto->fetch(0, 1, blk, ReqType::GetX);
    FetchResult r = proto->fetch(1000, 2, blk, ReqType::GetS);
    EXPECT_TRUE(r.threeHop);
    ASSERT_EQ(sink.downgraded.size(), 1u);
    EXPECT_EQ(sink.downgraded[0].first, 1u);
    const DirEntry *e = proto->directory().peek(blk);
    EXPECT_FALSE(e->hasOwner());
    EXPECT_TRUE(proto->directory().sharers(*e).test(1));
    EXPECT_TRUE(proto->directory().sharers(*e).test(2));
}

TEST_F(ProtocolTest, WriteToDirtyThirdNodeForwardsAndInvalidates)
{
    proto->fetch(0, 1, blk, ReqType::GetX);
    sink.invalidated.clear();
    FetchResult r = proto->fetch(1000, 2, blk, ReqType::GetX);
    EXPECT_TRUE(r.threeHop);
    EXPECT_EQ(r.invalidations, 1);
    EXPECT_TRUE(proto->nodeOwns(2, blk));
}

TEST_F(ProtocolTest, UncontendedRemoteFetchMatchesTable2)
{
    // The protocol portion of the 376-cycle remote fetch excludes
    // the two bus transactions charged by the node (2 x 13 cycles).
    FetchResult r = proto->fetch(0, 1, blk, ReqType::GetS);
    EXPECT_EQ(r.done, p.remoteFetch() - 2 * p.busLatency);
}

TEST_F(ProtocolTest, LocalFetchIsMemoryLatency)
{
    FetchResult r = proto->fetch(0, 0, blk, ReqType::GetS);
    EXPECT_EQ(r.done, p.dramAccess);
}

TEST_F(ProtocolTest, ThreeHopSlowerThanTwoHop)
{
    proto->fetch(0, 1, blk, ReqType::GetX);
    Tick start = 100000;
    FetchResult three = proto->fetch(start, 2, blk, ReqType::GetS);
    FetchResult two = proto->fetch(start * 2, 3, blk + 64,
                                   ReqType::GetS);
    EXPECT_GT(three.done - start, two.done - start * 2);
}

TEST_F(ProtocolTest, OnlyHolderSemantics)
{
    EXPECT_TRUE(proto->onlyHolder(0, blk)); // untouched block
    proto->fetch(0, 1, blk, ReqType::GetS);
    EXPECT_FALSE(proto->onlyHolder(0, blk));
    EXPECT_TRUE(proto->onlyHolder(1, blk));
}

/** The base 8-node machine with one exact pointer per entry. */
class OnePointerTest : public ProtocolTest
{
  protected:
    OnePointerTest() : ProtocolTest(onePointer()) {}

    static Params
    onePointer()
    {
        Params q = Params::base();
        q.dirFormat = SharerFormat::LimitedPointer;
        q.dirPointers = 1;
        q.validate();
        return q;
    }
};

TEST_F(OnePointerTest, BroadcastChargesEveryNodeButCallsOnlyFetchers)
{
    // Two readers overflow the single pointer, so the write
    // broadcasts: all seven other nodes get an invalidation message
    // and the ack wait covers them. Only the two readers ever fetched
    // the block, so only they can hold a copy, and only they get a
    // host downcall.
    proto->fetch(0, 1, blk, ReqType::GetS);
    proto->fetch(10, 2, blk, ReqType::GetS);
    sink.invalidated.clear();
    FetchResult w = proto->fetch(1000, 3, blk, ReqType::GetX);
    EXPECT_EQ(w.invalidations, 7);
    EXPECT_EQ(net.count(MsgKind::Invalidate), 7u);
    // The directory lookup ends at 1000 + RAD 23 + request (NI 20 +
    // wire 100) + directory 8 = 1151. The data is back by 1151 + DRAM
    // 56 + reply 120 = 1327, the acks by 1151 + 2 x 100 + NI 20 =
    // 1371; then the RAD's 23.
    EXPECT_EQ(w.done, 1394u);
    const std::vector<std::pair<NodeId, Addr>> fetchers = {{1, blk},
                                                           {2, blk}};
    EXPECT_EQ(sink.invalidated, fetchers);
    EXPECT_TRUE(proto->nodeOwns(3, blk));
}

TEST_F(ProtocolTest, HomeOfUsesPlacement)
{
    EXPECT_EQ(proto->homeOf(0xdeadbeef), 0u);
}


TEST_F(ProtocolTest, AblatedPriorStateMissesWriteRefetches)
{
    // With the Section 3.1 extra state disabled, a voluntary
    // writeback leaves no trace and the re-request is not a refetch.
    Params ab = Params::base();
    ab.priorOwnerState = false;
    Network net2(ab.numNodes, ab.netLatency, ab.niOccupancy);
    std::vector<std::unique_ptr<Memory>> mems2;
    std::vector<Memory *> ptrs2;
    for (std::size_t i = 0; i < ab.numNodes; ++i) {
        mems2.push_back(std::make_unique<Memory>(ab.dramAccess,
                                                 ab.blockSize));
        ptrs2.push_back(mems2.back().get());
    }
    GlobalProtocol p2(ab, net2, place, sink, ptrs2);
    p2.fetch(0, 1, blk, ReqType::GetX);
    p2.writeback(500, 1, blk);
    FetchResult r = p2.fetch(1000, 1, blk, ReqType::GetX);
    EXPECT_EQ(r.kind, MissKind::Coherence);
}

/**
 * Parameterized sweep: the refetch/coherence/cold classification is
 * exhaustive and consistent for both read and write requests.
 */
class ClassifySweep
    : public ::testing::TestWithParam<std::tuple<ReqType, bool>>
{
};

TEST_P(ClassifySweep, HistoryDrivenClassification)
{
    auto [type, use_writeback] = GetParam();
    Params p = Params::base();
    Network net(p.numNodes, p.netLatency, p.niOccupancy);
    HomeZero place;
    RecordingSink sink;
    std::vector<std::unique_ptr<Memory>> mems;
    std::vector<Memory *> ptrs;
    for (std::size_t i = 0; i < p.numNodes; ++i) {
        mems.push_back(std::make_unique<Memory>(p.dramAccess,
                                                p.blockSize));
        ptrs.push_back(mems.back().get());
    }
    GlobalProtocol proto(p, net, place, sink, ptrs);

    Addr blk = 0x4000;
    // Cold first.
    EXPECT_EQ(proto.fetch(0, 1, blk, type).kind, MissKind::Cold);
    if (use_writeback && type == ReqType::GetX) {
        proto.writeback(10, 1, blk);
        EXPECT_EQ(proto.fetch(20, 1, blk, type).kind,
                  MissKind::Refetch);
    } else {
        // Directory still believes node 1 holds it.
        EXPECT_EQ(proto.fetch(20, 1, blk, type).kind,
                  MissKind::Refetch);
    }
    // A third node steals it with a write; node 1's next miss is a
    // coherence miss.
    proto.fetch(30, 2, blk, ReqType::GetX);
    EXPECT_EQ(proto.fetch(40, 1, blk, type).kind,
              MissKind::Coherence);
}

INSTANTIATE_TEST_SUITE_P(
    Requests, ClassifySweep,
    ::testing::Values(std::make_tuple(ReqType::GetS, false),
                      std::make_tuple(ReqType::GetX, false),
                      std::make_tuple(ReqType::GetX, true)));

} // namespace rnuma
