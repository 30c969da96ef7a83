/**
 * @file
 * The hop-dependent interconnect behind the NetworkModel interface:
 * a 2D mesh with dimension-ordered routing and per-hop link
 * contention (the DASH-style scaling interconnect).
 *
 * It keeps the constant model's NI discipline — the source NI
 * serializes outgoing messages, the destination controller models
 * receive-side processing — and differs only in the wire term.
 */

#ifndef RNUMA_NET_TOPOLOGY_HH
#define RNUMA_NET_TOPOLOGY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/network.hh"

namespace rnuma
{

/**
 * W x H 2D mesh, registered as "mesh-2d". Node n sits at
 * (n % W, n / W); messages route dimension-ordered (X first, then
 * Y). Each directed link is a Resource with Params::linkOccupancy
 * per message, so a hot link serializes crossing traffic; each hop
 * adds Params::hopLatency of wire time. The coordinates are tabled
 * once at construction, so hop counts and route walks never
 * divide by W.
 *
 * Requires a rectangular factorization (meshDims); Params::validate()
 * rejects node counts that do not embed.
 */
class MeshNetwork : public NetworkModel
{
  public:
    MeshNetwork(std::size_t nodes, Tick hop_latency,
                Tick link_occupancy, Tick ni_occupancy);

    Tick send(Tick now, NodeId from, NodeId to,
              MsgKind kind) override;
    void post(Tick now, NodeId from, NodeId to,
              MsgKind kind) override;
    Tick latency(NodeId from, NodeId to) const override;
    Tick waited() const override;

    /** Manhattan hop count between two nodes. */
    std::size_t hops(NodeId from, NodeId to) const;

    std::size_t width() const { return width_; }
    std::size_t height() const { return height_; }

  private:
    /** Outgoing link directions, indexing links_. */
    enum Dir : std::size_t { East, West, South, North };

    /** A node's column and row. */
    struct Coord
    {
        std::uint32_t x;
        std::uint32_t y;
    };

    /**
     * Walk the dimension-ordered route, acquiring each directed link
     * and adding hopLatency per hop; returns the arrival time.
     */
    Tick route(Tick depart, NodeId from, NodeId to);

    /**
     * Cross @p n links in direction @p dir from node @p at, which
     * steps by @p step per hop; returns the arrival time.
     */
    Tick walk(Tick t, std::size_t at, std::ptrdiff_t step, Dir dir,
              std::size_t n);

    std::size_t width_;
    std::size_t height_;
    Tick hopLatency_;
    /** coords_[n]: node n's (n % W, n / W). */
    std::vector<Coord> coords_;
    /** links_[n * 4 + d]: node n's outgoing link in direction d. */
    std::vector<Resource> links_;
};

} // namespace rnuma

#endif // RNUMA_NET_TOPOLOGY_HH
