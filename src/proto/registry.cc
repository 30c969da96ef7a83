#include "proto/registry.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/analytic_model.hh"
#include "rad/rnuma_rad.hh"

namespace rnuma
{

namespace
{

/**
 * Eq 3's T* = C_allocate / C_refetch, at the half-occupied page move
 * the eq3 figure also evaluates (Table 1's C_allocate at
 * blocksPerPage()/2 valid blocks).
 */
double
eq3Optimum(const Params &p)
{
    return AnalyticModel(ModelParams::fromSystem(p, p.blocksPerPage() / 2))
        .optimalThreshold();
}

/**
 * max(1, round(T*)): rnuma-model's static threshold and the
 * break-even hit count of the utility-aware policies.
 */
std::size_t
eq3Anchor(const Params &p)
{
    auto t = static_cast<std::size_t>(std::llround(eq3Optimum(p)));
    return t < 1 ? 1 : t;
}

/** The decay floor of the per-page policies: max(1, t / 16). */
std::size_t
floorThreshold(std::size_t t)
{
    return t / 16 < 1 ? 1 : t / 16;
}

} // namespace

ProtocolSpec
hybridSpec(std::string id, std::string displayName,
           std::string description, PolicyFactory policy)
{
    RNUMA_ASSERT(policy, "hybrid spec '", id, "' needs a policy");
    ProtocolSpec s;
    s.id = std::move(id);
    s.displayName = std::move(displayName);
    s.description = std::move(description);
    s.makePolicy = policy;
    s.makeRad = [policy](const Params &p, NodeId node, RadDeps deps) {
        return std::unique_ptr<Rad>(std::make_unique<RNumaRad>(
            p, node, deps, PageMode::CCNuma, p.rnumaBlockCacheSize,
            false, p.pageCacheFrames(), policy(p)));
    };
    return s;
}

ProtocolSpec
staticThresholdSpec(std::size_t threshold)
{
    return hybridSpec(
        "rnuma-t" + std::to_string(threshold),
        "R-NUMA(T=" + std::to_string(threshold) + ")",
        "R-NUMA with the relocation threshold pinned to " +
            std::to_string(threshold),
        [threshold](const Params &) {
            return std::make_unique<StaticThresholdPolicy>(threshold);
        });
}

void
addBuiltins(ProtocolRegistry &reg)
{
    ProtocolSpec cc;
    cc.id = "ccnuma";
    cc.displayName = "CC-NUMA";
    cc.description =
        "block cache only; remote data cached at 32 B granularity";
    // Pages never leave the block cache: no policy, and the smallest
    // page cache stands idle.
    cc.makeRad = [](const Params &p, NodeId node, RadDeps deps) {
        return std::unique_ptr<Rad>(std::make_unique<RNumaRad>(
            p, node, deps, PageMode::CCNuma, p.blockCacheSize,
            p.infiniteBlockCache, 1, nullptr));
    };
    reg.add(std::move(cc));

    ProtocolSpec sc;
    sc.id = "scoma";
    sc.displayName = "S-COMA";
    sc.description =
        "page cache only; remote pages allocated in local memory";
    // Every remote page faults into the page cache on first touch, so
    // the smallest block cache (one line) stands idle.
    sc.makeRad = [](const Params &p, NodeId node, RadDeps deps) {
        return std::unique_ptr<Rad>(std::make_unique<RNumaRad>(
            p, node, deps, PageMode::SComa, p.blockSize, false,
            p.pageCacheFrames(), nullptr));
    };
    reg.add(std::move(sc));

    reg.add(hybridSpec(
        "rnuma", "R-NUMA",
        "hybrid RAD; pages relocate after "
        "Params::relocationThreshold refetches (Section 3.1)",
        [](const Params &p) {
            return std::make_unique<StaticThresholdPolicy>(
                p.relocationThreshold);
        }));

    reg.add(hybridSpec(
        "rnuma-hysteresis", "R-NUMA(hyst)",
        "hybrid RAD; pages evicted from the page cache need 4x the "
        "refetches to relocate again (no ping-pong)",
        [](const Params &p) {
            return std::make_unique<HysteresisPolicy>(
                p.relocationThreshold, 4 * p.relocationThreshold);
        }));

    reg.add(hybridSpec(
        "rnuma-adaptive", "R-NUMA(adapt)",
        "hybrid RAD; per-page threshold halves on relocation and "
        "escalates 2x per relocate/evict ping-pong, tracking the "
        "Eq 3 optimum",
        [](const Params &p) {
            std::size_t t = p.relocationThreshold;
            return std::make_unique<AdaptiveThresholdPolicy>(
                t, floorThreshold(t), 16 * t);
        }));

    reg.add(hybridSpec(
        "rnuma-model", "R-NUMA(model)",
        "hybrid RAD; static threshold seeded from the Section 3.2 "
        "cost model's optimum T* = C_alloc / C_refetch",
        [](const Params &p) {
            return std::make_unique<StaticThresholdPolicy>(eq3Anchor(p));
        }));

    // The utility-aware family: policies that consume the
    // residentHits feedback RNumaRad delivers at eviction. All three
    // anchor their notion of "profitable residency" to the same Eq 3
    // cost ratio the rnuma-model spec uses: a residency that served
    // T* = C_alloc / C_refetch page-cache hits repaid its page
    // operations.

    reg.add(hybridSpec(
        "rnuma-utility", "R-NUMA(utility)",
        "hybrid RAD; evictions escalate the per-page threshold only "
        "below the Eq 3 break-even hit count — profitable "
        "residencies decay it instead",
        [](const Params &p) {
            std::size_t t = p.relocationThreshold;
            return std::make_unique<UtilityThresholdPolicy>(
                t, floorThreshold(t), 16 * t, eq3Anchor(p));
        }));

    reg.add(hybridSpec(
        "rnuma-online-model", "R-NUMA(online)",
        "hybrid RAD; re-estimates the Eq 3 optimum online — the "
        "global threshold is T* minus the observed EWMA of resident "
        "hits per eviction",
        [](const Params &p) {
            return std::make_unique<OnlineModelPolicy>(
                std::max(1.0, eq3Optimum(p)), 1,
                16 * p.relocationThreshold);
        }));

    reg.add(hybridSpec(
        "rnuma-ewma", "R-NUMA(ewma)",
        "hybrid RAD; per-page EWMA utility score (resident hits vs "
        "the Eq 3 break-even) interpolates the threshold between "
        "trust and distrust",
        [](const Params &p) {
            std::size_t lo = floorThreshold(p.relocationThreshold);
            // min + max = 2t, so the no-evidence midpoint threshold
            // is exactly the configured base T.
            std::size_t hi = 2 * p.relocationThreshold - lo;
            return std::make_unique<EwmaUtilityPolicy>(lo, hi, eq3Anchor(p),
                                                       0.5);
        }));
}

Table
protocolTable()
{
    Params p = Params::base();
    Table t({"id", "name", "relocation policy", "description"});
    for (const ProtocolSpec *s : ProtocolRegistry::global().all()) {
        t.addRow({s->id, s->displayName,
                  s->makePolicy ? s->makePolicy(p)->describe() : "-",
                  s->description});
    }
    return t;
}

const ProtocolSpec &
protocolSpec(const std::string &name)
{
    return ProtocolRegistry::global().at(name);
}

const ProtocolSpec *
findProtocolSpec(const std::string &name)
{
    return ProtocolRegistry::global().find(name);
}

std::vector<std::string>
protocolIds()
{
    std::vector<std::string> ids;
    for (const ProtocolSpec *s : ProtocolRegistry::global().all())
        ids.push_back(s->id);
    return ids;
}

} // namespace rnuma
