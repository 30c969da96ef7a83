/**
 * @file
 * The network registry: string-keyed, composable interconnect models
 * in the one Registry<Spec> mechanism (common/registry.hh). A NetworkSpec
 * captures a stable id (the results-JSON currency), a display
 * name, and a factory from Params to a NetworkModel; the two
 * built-ins are "constant" (the paper's fixed-latency network, the
 * default) and "mesh-2d". A new topology is one registration away
 * from every Params (Params::networkModel) and rnuma_sweep
 * --list-networks.
 */

#ifndef RNUMA_NET_REGISTRY_HH
#define RNUMA_NET_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>

#include "common/params.hh"
#include "common/registry.hh"
#include "common/table.hh"
#include "net/network.hh"

namespace rnuma
{

/** Builds the machine-wide interconnect for a run. */
using NetworkFactory =
    std::function<std::unique_ptr<NetworkModel>(const Params &)>;

/** One selectable interconnect model. Value-semantic, like
 * ProtocolSpec: cells copy the id they run under. */
struct NetworkSpec
{
    /**
     * Stable machine-readable id: the Params::networkModel value and
     * the results-JSON currency ("constant", "mesh-2d").
     * Lowercase, no spaces.
     */
    std::string id;
    /** Human-readable name for tables and logs ("2D mesh"). */
    std::string displayName;
    /** One-line description for --list-networks. */
    std::string description;
    /** Required: builds the network model. */
    NetworkFactory make;

    bool valid() const { return !id.empty() && make != nullptr; }

    static constexpr const char *kind = "network";
};

/** The interconnect table; see common/registry.hh. */
using NetworkRegistry = Registry<NetworkSpec>;

/** Registers "constant" and "mesh-2d". */
void addBuiltins(NetworkRegistry &reg);

/** The network registry as a table (id, name, description): what
 *  --list-networks prints. */
Table networkTable();

/** Shorthand for NetworkRegistry::global().at(name). */
const NetworkSpec &networkSpec(const std::string &name);

/** Shorthand for NetworkRegistry::global().find(name). */
const NetworkSpec *findNetworkSpec(const std::string &name);

/**
 * Build the interconnect Params selects (Params::networkModel).
 * Fatal on an unknown id — the single construction point replacing
 * the hand-rolled Network(p.numNodes, p.netLatency, p.niOccupancy)
 * calls that used to be scattered across machine.cc, figures.cc, and
 * the tests.
 */
std::unique_ptr<NetworkModel> makeNetwork(const Params &params);

/**
 * The model-derived uncontended remote fetch latency:
 * Params::remoteFetch(wire) with the wire term taken from the
 * selected model's mean pairwise latency. Equals Params::
 * remoteFetch() (Table 2's 376 cycles) for the constant model; the
 * figure AnalyticModel must use so Eq 1-3 stay consistent with any
 * interconnect.
 */
Tick remoteFetchLatency(const Params &params);

} // namespace rnuma

#endif // RNUMA_NET_REGISTRY_HH
