/**
 * @file
 * The protocol registry: string-keyed, composable system descriptions
 * replacing the closed CCNuma/SComa/RNuma enum as the simulator's
 * selection currency.
 *
 * The paper's central observation (Section 3, Figure 4) is that
 * CC-NUMA, S-COMA, and R-NUMA differ only in their Remote Access
 * Device, and that the *reactive* part of R-NUMA is a small per-page
 * decision rule layered on a hybrid RAD. A ProtocolSpec captures
 * exactly that factoring: a stable id (the JSON/compare currency), a
 * display name, a Rad factory, and — for hybrid RADs — a
 * RelocationPolicy factory. The three paper systems are the first
 * three registrations; new hybrid designs (hysteresis, adaptive
 * thresholds, anything else a RelocationPolicy can express) are
 * one registration away and immediately run by the policies and
 * serving figures and listed by rnuma_sweep --list-protocols.
 */

#ifndef RNUMA_PROTO_REGISTRY_HH
#define RNUMA_PROTO_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hh"
#include "common/table.hh"
#include "core/relocation_policy.hh"
#include "rad/rad.hh"

namespace rnuma
{

/** Builds one node's RAD for a machine run. */
using RadFactory = std::function<std::unique_ptr<Rad>(
    const Params &, NodeId, RadDeps)>;

/** Builds one node's relocation policy (hybrid RADs only). */
using PolicyFactory =
    std::function<std::unique_ptr<RelocationPolicy>(const Params &)>;

/**
 * One selectable system. Value-semantic: cells and machines copy the
 * spec they run under, so ad-hoc variants (e.g. Figure 8's
 * per-threshold cells) need not live in the global registry.
 */
struct ProtocolSpec
{
    /**
     * Stable machine-readable id: the lookup key and the JSON
     * artifact / compare-gate currency ("ccnuma",
     * "rnuma-hysteresis", ...). Lowercase, no spaces.
     */
    std::string id;
    /** Human-readable name for tables and logs ("CC-NUMA"). */
    std::string displayName;
    /** One-line description for --list-protocols. */
    std::string description;
    /** Required: builds the RAD. */
    RadFactory makeRad;
    /**
     * Optional: the relocation policy a hybrid RAD runs. Exposed (and
     * not just captured inside makeRad) so tooling can describe the
     * policy and tests can instantiate it standalone.
     */
    PolicyFactory makePolicy;

    bool valid() const { return !id.empty() && makeRad != nullptr; }

    static constexpr const char *kind = "protocol";
};

/** The protocol table; see common/registry.hh. */
using ProtocolRegistry = Registry<ProtocolSpec>;

/** Registers the paper's three systems and the policy variants. */
void addBuiltins(ProtocolRegistry &reg);

/**
 * The protocol registry as a table (id, name, relocation policy for
 * the paper's base Params, description): what --list-protocols
 * prints.
 */
Table protocolTable();

/** Shorthand for ProtocolRegistry::global().at(name). */
const ProtocolSpec &protocolSpec(const std::string &name);

/** Shorthand for ProtocolRegistry::global().find(name). */
const ProtocolSpec *findProtocolSpec(const std::string &name);

/**
 * Every registered protocol's id, in registration order: the column
 * list of every comparison that runs all protocols (the policies and
 * serving figures).
 */
std::vector<std::string> protocolIds();

/**
 * Build an unregistered hybrid-RAD spec (block cache + page cache +
 * @p policy): the one-liner for experimenting with a new relocation
 * policy before promoting it to a registration.
 */
ProtocolSpec hybridSpec(std::string id, std::string displayName,
                        std::string description,
                        PolicyFactory policy);

/**
 * An unregistered R-NUMA variant pinning the static threshold to
 * @p threshold regardless of Params::relocationThreshold. Figure 8's
 * threshold sensitivity is a sweep over these specs.
 */
ProtocolSpec staticThresholdSpec(std::size_t threshold);

} // namespace rnuma

#endif // RNUMA_PROTO_REGISTRY_HH
