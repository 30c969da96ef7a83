#include "proto/registry.hh"

#include <cmath>

#include "common/logging.hh"
#include "core/analytic_model.hh"
#include "rad/ccnuma_rad.hh"
#include "rad/rnuma_rad.hh"
#include "rad/scoma_rad.hh"

namespace rnuma
{

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
        return std::unique_ptr<Rad>(
            std::make_unique<RNumaRad>(p, node, deps, policy(p)));
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
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<StaticThresholdPolicy>(threshold));
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
    cc.makeRad = [](const Params &p, NodeId node, RadDeps deps) {
        return std::unique_ptr<Rad>(
            std::make_unique<CcNumaRad>(p, node, deps));
    };
    reg.add(std::move(cc));

    ProtocolSpec sc;
    sc.id = "scoma";
    sc.displayName = "S-COMA";
    sc.description =
        "page cache only; remote pages allocated in local memory";
    sc.makeRad = [](const Params &p, NodeId node, RadDeps deps) {
        return std::unique_ptr<Rad>(
            std::make_unique<SComaRad>(p, node, deps));
    };
    reg.add(std::move(sc));

    reg.add(hybridSpec(
        "rnuma", "R-NUMA",
        "hybrid RAD; pages relocate after "
        "Params::relocationThreshold refetches (Section 3.1)",
        [](const Params &p) {
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<StaticThresholdPolicy>(
                    p.relocationThreshold));
        }));

    reg.add(hybridSpec(
        "rnuma-hysteresis", "R-NUMA(hyst)",
        "hybrid RAD; pages evicted from the page cache need 4x the "
        "refetches to relocate again (no ping-pong)",
        [](const Params &p) {
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<HysteresisPolicy>(
                    p.relocationThreshold,
                    4 * p.relocationThreshold));
        }));

    reg.add(hybridSpec(
        "rnuma-adaptive", "R-NUMA(adapt)",
        "hybrid RAD; per-page threshold halves on relocation and "
        "escalates 2x per relocate/evict ping-pong, tracking the "
        "Eq 3 optimum",
        [](const Params &p) {
            std::size_t t = p.relocationThreshold;
            std::size_t lo = t / 16 < 1 ? 1 : t / 16;
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<AdaptiveThresholdPolicy>(t, lo,
                                                          16 * t));
        }));

    reg.add(hybridSpec(
        "rnuma-model", "R-NUMA(model)",
        "hybrid RAD; static threshold seeded from the Section 3.2 "
        "cost model's optimum T* = C_alloc / C_refetch",
        [](const Params &p) {
            // Eq 3's T* assumes the half-occupied page move the
            // eq3 figure also evaluates (Table 1's C_allocate at
            // blocksPerPage()/2 valid blocks).
            AnalyticModel model(ModelParams::fromSystem(
                p, p.blocksPerPage() / 2));
            auto t = static_cast<std::size_t>(
                std::llround(model.optimalThreshold()));
            if (t < 1)
                t = 1;
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<StaticThresholdPolicy>(t));
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
            std::size_t lo = t / 16 < 1 ? 1 : t / 16;
            AnalyticModel model(ModelParams::fromSystem(
                p, p.blocksPerPage() / 2));
            auto be = static_cast<std::uint64_t>(
                std::llround(model.optimalThreshold()));
            if (be < 1)
                be = 1;
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<UtilityThresholdPolicy>(t, lo, 16 * t,
                                                         be));
        }));

    reg.add(hybridSpec(
        "rnuma-online-model", "R-NUMA(online)",
        "hybrid RAD; re-estimates the Eq 3 optimum online — the "
        "global threshold is T* minus the observed EWMA of resident "
        "hits per eviction",
        [](const Params &p) {
            AnalyticModel model(ModelParams::fromSystem(
                p, p.blocksPerPage() / 2));
            double tStar = model.optimalThreshold();
            if (tStar < 1.0)
                tStar = 1.0;
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<OnlineModelPolicy>(
                    tStar, 1, 16 * p.relocationThreshold));
        }));

    reg.add(hybridSpec(
        "rnuma-ewma", "R-NUMA(ewma)",
        "hybrid RAD; per-page EWMA utility score (resident hits vs "
        "the Eq 3 break-even) interpolates the threshold between "
        "trust and distrust",
        [](const Params &p) {
            std::size_t t = p.relocationThreshold;
            std::size_t lo = t / 16 < 1 ? 1 : t / 16;
            // min + max = 2t, so the no-evidence midpoint threshold
            // is exactly the configured base T.
            std::size_t hi = 2 * t - lo;
            AnalyticModel model(ModelParams::fromSystem(
                p, p.blocksPerPage() / 2));
            auto be = static_cast<std::uint64_t>(
                std::llround(model.optimalThreshold()));
            if (be < 1)
                be = 1;
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<EwmaUtilityPolicy>(lo, hi, be, 0.5));
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

std::unique_ptr<Rad>
makeRad(const ProtocolSpec &spec, const Params &params, NodeId node,
        RadDeps deps)
{
    RNUMA_ASSERT(spec.valid(), "protocol spec '", spec.id,
                 "' has no Rad factory");
    return spec.makeRad(params, node, deps);
}

} // namespace rnuma
