#include "net/network.hh"

#include "common/logging.hh"

namespace rnuma
{

NetworkModel::NetworkModel(std::size_t nodes, Tick ni_occupancy)
{
    RNUMA_ASSERT(nodes >= 1, "network needs at least one node");
    nis.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i)
        nis.emplace_back(ni_occupancy);
}

std::uint64_t
NetworkModel::totalMessages() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    return total;
}

NetworkStats
NetworkModel::stats() const
{
    NetworkStats s;
    for (std::size_t k = 0; k < numMsgKinds; ++k)
        s.messages[k] = counts[k];
    return s;
}

Tick
NetworkModel::meanLatency() const
{
    const std::size_t n = nodes();
    if (n < 2)
        return 0;
    // Rounded average of the contention-free latency over all
    // ordered pairs of distinct nodes.
    std::uint64_t sum = 0;
    for (NodeId a = 0; a < n; ++a)
        for (NodeId b = 0; b < n; ++b)
            if (a != b)
                sum += latency(a, b);
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(n) * (n - 1);
    return (sum + pairs / 2) / pairs;
}

Tick
NetworkModel::waited() const
{
    Tick total = 0;
    for (const auto &r : nis)
        total += r.waited();
    return total;
}

Network::Network(std::size_t nodes, Tick latency, Tick ni_occupancy)
    : NetworkModel(nodes, ni_occupancy), netLatency(latency)
{
}

Tick
Network::send(Tick now, NodeId from, NodeId to, MsgKind kind)
{
    countMsg(kind);
    if (from == to)
        return now;
    // Source NI occupancy plus the constant wire latency. The
    // destination side's processing contention is modeled by the
    // receiving controller (GlobalProtocol's per-node resource), so
    // it is not charged again here.
    Tick departed = ni(from).acquire(now) + ni(from).occupancyPerUse();
    return departed + netLatency;
}

void
Network::post(Tick now, NodeId from, NodeId to, MsgKind kind)
{
    countMsg(kind);
    if (from == to)
        return;
    ni(from).acquire(now);
    ni(to).acquire(now + netLatency);
}

Tick
Network::latency(NodeId, NodeId) const
{
    // Deliberately constant for every pair, including from == to:
    // the protocol's invalidation-acknowledgement bound historically
    // charged 2 * netLatency regardless of target, and the constant
    // model must reproduce that arithmetic exactly.
    return netLatency;
}

} // namespace rnuma
