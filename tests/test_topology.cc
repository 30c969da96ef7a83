/**
 * @file
 * Unit tests for the hop-dependent mesh topology (net/topology.hh)
 * and the geometry math it embeds (common/geometry.hh): mesh
 * factorization, dimension-ordered hop counts, per-link contention
 * serialization, and the constant model's latency(from, to) quirk
 * the acknowledgement bound depends on.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/geometry.hh"
#include "net/topology.hh"

namespace rnuma
{

TEST(Geometry, MeshDimsFactorsRectangles)
{
    std::size_t w = 0, h = 0;
    ASSERT_TRUE(meshDims(8, &w, &h));
    EXPECT_EQ(w, 4u);
    EXPECT_EQ(h, 2u);
    ASSERT_TRUE(meshDims(16, &w, &h));
    EXPECT_EQ(w, 4u);
    EXPECT_EQ(h, 4u);
    ASSERT_TRUE(meshDims(32, &w, &h));
    EXPECT_EQ(w, 8u);
    EXPECT_EQ(h, 4u);
    ASSERT_TRUE(meshDims(128, &w, &h));
    EXPECT_EQ(w, 16u);
    EXPECT_EQ(h, 8u);
    ASSERT_TRUE(meshDims(512, &w, &h));
    EXPECT_EQ(w, 32u);
    EXPECT_EQ(h, 16u);
    ASSERT_TRUE(meshDims(2, &w, &h));
    EXPECT_EQ(w, 2u);
    EXPECT_EQ(h, 1u);
}

TEST(Geometry, MeshDimsRejectsUnEmbeddableCounts)
{
    // Primes > 2 only factor as 1 x N strips, beyond the 2:1 aspect
    // cap; so do skewed composites like 2 x 13.
    EXPECT_FALSE(meshDims(7, nullptr, nullptr));
    EXPECT_FALSE(meshDims(13, nullptr, nullptr));
    EXPECT_FALSE(meshDims(26, nullptr, nullptr));
    EXPECT_FALSE(meshDims(0, nullptr, nullptr));
}

TEST(Mesh, DimensionOrderedHopCounts)
{
    // 8 nodes -> 4 x 2: node n at (n % 4, n / 4).
    MeshNetwork m(8, 25, 4, 20);
    EXPECT_EQ(m.width(), 4u);
    EXPECT_EQ(m.height(), 2u);
    EXPECT_EQ(m.hops(0, 0), 0u);
    EXPECT_EQ(m.hops(0, 1), 1u);
    EXPECT_EQ(m.hops(0, 3), 3u); // same row, 3 columns
    EXPECT_EQ(m.hops(0, 4), 1u); // same column, next row
    EXPECT_EQ(m.hops(0, 7), 4u); // (0,0) -> (3,1): 3 + 1
    EXPECT_EQ(m.hops(7, 0), 4u); // symmetric
    // Contention-free wire = hops * hopLatency; diameter grows with
    // the machine (the whole point of the topology axis).
    EXPECT_EQ(m.latency(0, 7), 100u);
    EXPECT_EQ(m.latency(0, 0), 0u);
}

TEST(Mesh, UncontendedSendIsNiPlusPerHopWire)
{
    MeshNetwork m(8, 25, 4, 20);
    // NI occupancy (20), then one hop (25).
    EXPECT_EQ(m.send(0, 0, 1, MsgKind::Request), 45u);
    // Local messages bypass the network entirely.
    EXPECT_EQ(m.send(7, 3, 3, MsgKind::Request), 7u);
}

TEST(Mesh, SharedLinkSerializesCrossingTraffic)
{
    MeshNetwork m(8, 25, 4, 20);
    // 0 -> 2 routes 0 -> 1 -> 2: departs its NI at 20, crosses link
    // 0->1 at [20, 24), arrives node 1 at 45, holds link 1->2 over
    // [45, 49), arrives at 70.
    EXPECT_EQ(m.send(0, 0, 2, MsgKind::Request), 70u);
    // 1 -> 2 wants the same directed link 1->2 at t=20 but queues
    // behind the first message until 49; uncontended it would arrive
    // at 45 (NI 20 + one hop 25).
    EXPECT_EQ(m.send(0, 1, 2, MsgKind::Request), 74u);
    // The 29 cycles of link queueing show up in waited().
    EXPECT_GE(m.waited(), 29u);
}

TEST(Mesh, HopsMatchTheCoordinateFormula)
{
    // Node n sits at (n % W, n / W); the tabled coordinates must give
    // the Manhattan distance that formula does, for every ordered pair.
    for (std::size_t nodes : {8, 32, 128, 512}) {
        MeshNetwork m(nodes, 25, 4, 20);
        const std::size_t w = m.width();
        for (NodeId a = 0; a < nodes; ++a) {
            for (NodeId b = 0; b < nodes; ++b) {
                const std::size_t ax = a % w, ay = a / w;
                const std::size_t bx = b % w, by = b / w;
                const std::size_t expect = (ax > bx ? ax - bx : bx - ax) +
                    (ay > by ? ay - by : by - ay);
                ASSERT_EQ(m.hops(a, b), expect)
                    << nodes << " nodes: " << a << " -> " << b;
            }
        }
    }
}

namespace
{

/**
 * The dimension-ordered route written out hop by hop: each hop names
 * its directed link by the neighbor it leads to (east +1, west -1,
 * south +W, north -W) and is acquired in walk order.
 */
class ReferenceMesh
{
  public:
    ReferenceMesh(std::size_t nodes, std::size_t width, Tick hop,
                  Tick link_occupancy, Tick ni_occupancy)
        : w_(width), hop_(hop), nis_(nodes, Resource(ni_occupancy)),
          links_(nodes * 4, Resource(link_occupancy))
    {
    }

    Tick
    send(Tick now, NodeId from, NodeId to)
    {
        if (from == to)
            return now;
        Tick t = nis_[from].acquire(now) + nis_[from].occupancyPerUse();
        NodeId at = from;
        while (at % w_ != to % w_) {
            const NodeId next = at % w_ < to % w_ ? at + 1 : at - 1;
            t = link(at, next).acquire(t) + hop_;
            at = next;
        }
        while (at != to) {
            const NodeId next = at < to ? at + NodeId(w_) : at - NodeId(w_);
            t = link(at, next).acquire(t) + hop_;
            at = next;
        }
        return t;
    }

    Tick
    waited() const
    {
        Tick total = 0;
        for (const Resource &r : nis_)
            total += r.waited();
        for (const Resource &r : links_)
            total += r.waited();
        return total;
    }

  private:
    Resource &
    link(NodeId from, NodeId to)
    {
        const std::size_t dir = to == from + 1 ? 0
            : to + 1 == from                  ? 1
            : to == from + w_                 ? 2
                                              : 3;
        return links_[std::size_t{from} * 4 + dir];
    }

    std::size_t w_;
    Tick hop_;
    std::vector<Resource> nis_;
    std::vector<Resource> links_;
};

} // namespace

TEST(Mesh, ContendedRoutesAcquireTheSameLinksInTheSameOrder)
{
    // Links held 40 cycles against a 25-cycle hop, and a new message
    // every 3 cycles: most hops queue, so an arrival tick depends on
    // which links the route took and in which order. Every ordered
    // pair is sent (all four directions, and every corner turn), on
    // meshes 2, 4 and 8 nodes wide.
    const std::pair<std::size_t, std::size_t> meshes[] = {
        {4, 2}, {8, 4}, {32, 8}};
    for (const auto &[nodes, width] : meshes) {
        MeshNetwork m(nodes, 25, 40, 20);
        ASSERT_EQ(m.width(), width);
        ReferenceMesh ref(nodes, width, 25, 40, 20);
        Tick now = 0;
        std::size_t remote = 0, queued = 0;
        for (NodeId a = 0; a < nodes; ++a) {
            for (NodeId b = 0; b < nodes; ++b) {
                // Interleave sources so routes cross one another; 5
                // is coprime to each node count, so a still visits
                // every source.
                const NodeId from = NodeId((a * 5 + b) % nodes);
                const Tick got = m.send(now, from, b, MsgKind::Request);
                ASSERT_EQ(got, ref.send(now, from, b))
                    << nodes << " nodes: " << from << " -> " << b
                    << " at " << now;
                remote += from != b;
                queued += got > now + 20 + m.latency(from, b);
                now += 3;
            }
        }
        EXPECT_EQ(m.waited(), ref.waited()) << nodes << " nodes";
        EXPECT_GT(2 * queued, remote) << nodes << " nodes";
    }
}

TEST(Mesh, MeanLatencyIsAverageOverDistinctPairs)
{
    MeshNetwork m(8, 25, 4, 20);
    std::uint64_t sum = 0, pairs = 0;
    for (NodeId a = 0; a < 8; ++a) {
        for (NodeId b = 0; b < 8; ++b) {
            if (a == b)
                continue;
            sum += m.latency(a, b);
            pairs++;
        }
    }
    const Tick expect =
        static_cast<Tick>((sum + pairs / 2) / pairs);
    EXPECT_EQ(m.meanLatency(), expect);
}

TEST(Constant, LatencyIsFlatForEveryPairIncludingSelf)
{
    // The acknowledgement bound computes 2 * worst-wire over the
    // invalidated sharers; the constant model must return netLatency
    // even for from == to so that bound reproduces the historical
    // 2 * netLatency arithmetic bit for bit.
    Network n(4, 100, 20);
    EXPECT_EQ(n.latency(0, 3), 100u);
    EXPECT_EQ(n.latency(2, 2), 100u);
    EXPECT_EQ(n.meanLatency(), 100u);
}

} // namespace rnuma
