#include "net/topology.hh"

#include "common/geometry.hh"
#include "common/logging.hh"

namespace rnuma
{

MeshNetwork::MeshNetwork(std::size_t nodes, Tick hop_latency,
                         Tick link_occupancy, Tick ni_occupancy)
    : NetworkModel(nodes, ni_occupancy), hopLatency_(hop_latency)
{
    const bool ok = meshDims(nodes, &width_, &height_);
    RNUMA_ASSERT(ok, "mesh-2d cannot embed ", nodes, " nodes");
    RNUMA_ASSERT(hop_latency >= 1, "mesh hop latency must be >= 1");
    coords_.reserve(nodes);
    for (std::size_t n = 0; n < nodes; ++n)
        coords_.push_back({static_cast<std::uint32_t>(n % width_),
                           static_cast<std::uint32_t>(n / width_)});
    // Four directed links per node (east, west, south, north); edge
    // nodes simply never acquire their missing directions.
    links_.reserve(nodes * 4);
    for (std::size_t i = 0; i < nodes * 4; ++i)
        links_.emplace_back(link_occupancy);
}

std::size_t
MeshNetwork::hops(NodeId from, NodeId to) const
{
    const Coord f = coords_[from], t = coords_[to];
    const std::size_t dx = f.x > t.x ? f.x - t.x : t.x - f.x;
    const std::size_t dy = f.y > t.y ? f.y - t.y : t.y - f.y;
    return dx + dy;
}

Tick
MeshNetwork::walk(Tick t, std::size_t at, std::ptrdiff_t step, Dir dir,
                  std::size_t n)
{
    for (; n > 0; --n, at += static_cast<std::size_t>(step))
        t = links_[at * 4 + dir].acquire(t) + hopLatency_;
    return t;
}

Tick
MeshNetwork::route(Tick depart, NodeId from, NodeId to)
{
    // Dimension-ordered: walk X to the destination column, then Y to
    // the destination row. Each directed link serializes crossing
    // traffic; each hop adds the wire latency.
    const Coord f = coords_[from], d = coords_[to];
    const auto w = static_cast<std::ptrdiff_t>(width_);
    Tick t = f.x < d.x ? walk(depart, from, 1, East, d.x - f.x)
                       : walk(depart, from, -1, West, f.x - d.x);
    // The X walk ends in the source row, destination column.
    const std::size_t turn = std::size_t{from} - f.x + d.x;
    return f.y < d.y ? walk(t, turn, w, South, d.y - f.y)
                     : walk(t, turn, -w, North, f.y - d.y);
}

Tick
MeshNetwork::send(Tick now, NodeId from, NodeId to, MsgKind kind)
{
    countMsg(kind);
    if (from == to)
        return now;
    const Tick departed =
        ni(from).acquire(now) + ni(from).occupancyPerUse();
    return route(departed, from, to);
}

void
MeshNetwork::post(Tick now, NodeId from, NodeId to, MsgKind kind)
{
    countMsg(kind);
    if (from == to)
        return;
    // Asynchronous messages are off the critical path: charge the NI
    // occupancy at both ends (as the constant model does) using the
    // contention-free transit time, without walking the links — the
    // sender is not stalled, so link serialization is charged only
    // to synchronous traffic.
    ni(from).acquire(now);
    ni(to).acquire(now + latency(from, to));
}

Tick
MeshNetwork::latency(NodeId from, NodeId to) const
{
    return static_cast<Tick>(hops(from, to)) * hopLatency_;
}

Tick
MeshNetwork::waited() const
{
    Tick total = NetworkModel::waited();
    for (const auto &l : links_)
        total += l.waited();
    return total;
}

} // namespace rnuma
