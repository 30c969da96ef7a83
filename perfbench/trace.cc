#include "trace.hh"

#include <fstream>
#include <utility>

#include "net/registry.hh"

namespace perfbench
{

using namespace rnuma;

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::SimRun:        return "sim.run";
      case Layer::RadLocal:      return "rad.local";
      case Layer::RadRemote:     return "rad.remote";
      case Layer::RadInvalidate: return "rad.invalidate";
      case Layer::RadWriteback:  return "rad.writeback";
      case Layer::CorePolicy:    return "core.policy";
      case Layer::NetSend:       return "net.send";
      case Layer::NetPost:       return "net.post";
    }
    return "?";
}

void
Tracer::clear()
{
    spans_.clear();
    spans_.shrink_to_fit();
    dropped_ = 0;
    totals_ = LayerTotals{};
}

bool
Tracer::writeSpans(const std::string &path) const
{
    std::ofstream os(path);
    os << "id\tparent\tcell\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << i << '\t' << s.parent << '\t' << s.cell << '\t'
           << layerName(s.layer) << '\t' << s.start << '\t' << s.end
           << '\n';
    }
    return static_cast<bool>(os);
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

namespace
{

/**
 * Pass-through RAD. The parallel engine's confinement probes are
 * answered conservatively ("not confined") instead of delegated, and
 * declared without `override`, so removing those virtuals from Rad
 * needs no edit here; the benchmark runs the serial engine, which
 * never calls them.
 */
class TracedRad : public Rad
{
  public:
    TracedRad(const Params &params, NodeId node, RadDeps deps,
              std::unique_ptr<Rad> inner)
        : Rad(params, node, deps), inner_(std::move(inner))
    {}

    RadAccess
    access(Tick now, Addr addr, bool write, bool upgrade) override
    {
        tracer().begin();
        RadAccess r = inner_->access(now, addr, write, upgrade);
        tracer().end(r.service == ServiceKind::Remote
                         ? Layer::RadRemote : Layer::RadLocal);
        return r;
    }

    bool
    invalidateBlock(Addr block) override
    {
        tracer().begin();
        bool dirty = inner_->invalidateBlock(block);
        tracer().end(Layer::RadInvalidate);
        return dirty;
    }

    void
    downgradeBlock(Addr block) override
    {
        tracer().begin();
        inner_->downgradeBlock(block);
        tracer().end(Layer::RadInvalidate);
    }

    void
    l1Writeback(Tick now, Addr block) override
    {
        tracer().begin();
        inner_->l1Writeback(now, block);
        tracer().end(Layer::RadWriteback);
    }

    bool
    hasWritePermission(Addr block) const override
    {
        return inner_->hasWritePermission(block);
    }

    bool accessConfined(Addr, bool, NodeId, NodeId) const
    {
        return false;
    }

    bool absorbsL1Writeback(Addr) const { return false; }

  private:
    std::unique_ptr<Rad> inner_;
};

/**
 * Pass-through relocation policy. wouldFire is left to the base
 * class default for the same reason TracedRad answers its probes
 * itself.
 */
class TracedPolicy : public RelocationPolicy
{
  public:
    explicit TracedPolicy(std::unique_ptr<RelocationPolicy> inner)
        : inner_(std::move(inner))
    {}

    bool
    onRefetch(Addr page) override
    {
        tracer().begin();
        bool fire = inner_->onRefetch(page);
        tracer().end(Layer::CorePolicy);
        return fire;
    }

    void
    onRelocated(Addr page) override
    {
        tracer().begin();
        inner_->onRelocated(page);
        tracer().end(Layer::CorePolicy);
    }

    void
    onEvicted(Addr page, std::uint64_t residentHits) override
    {
        tracer().begin();
        inner_->onEvicted(page, residentHits);
        tracer().end(Layer::CorePolicy);
    }

    void
    reset(Addr page) override
    {
        tracer().begin();
        inner_->reset(page);
        tracer().end(Layer::CorePolicy);
    }

    std::uint64_t count(Addr page) const override
    {
        return inner_->count(page);
    }
    std::size_t trackedPages() const override
    {
        return inner_->trackedPages();
    }
    std::string describe() const override { return inner_->describe(); }

  private:
    std::unique_ptr<RelocationPolicy> inner_;
};

/**
 * Pass-through network. The message counters RunStats reads live in
 * the NetworkModel base, so the wrapper counts every message itself;
 * queueing delay is the inner model's. minLatency is not overridden:
 * the base class derives it from latency(), which delegates.
 */
class TracedNetwork : public NetworkModel
{
  public:
    TracedNetwork(std::unique_ptr<NetworkModel> inner, Tick niOccupancy)
        : NetworkModel(inner->nodes(), niOccupancy),
          inner_(std::move(inner))
    {}

    Tick
    send(Tick now, NodeId from, NodeId to, MsgKind kind) override
    {
        tracer().begin();
        countMsg(kind);
        Tick t = inner_->send(now, from, to, kind);
        tracer().end(Layer::NetSend);
        return t;
    }

    void
    post(Tick now, NodeId from, NodeId to, MsgKind kind) override
    {
        tracer().begin();
        countMsg(kind);
        inner_->post(now, from, to, kind);
        tracer().end(Layer::NetPost);
    }

    Tick latency(NodeId from, NodeId to) const override
    {
        return inner_->latency(from, to);
    }
    Tick meanLatency() const override { return inner_->meanLatency(); }
    Tick waited() const override { return inner_->waited(); }

  private:
    std::unique_ptr<NetworkModel> inner_;
};

const char tracedNetPrefix[] = "perfbench-traced-";

} // namespace

ProtocolSpec
tracedSpec(const ProtocolSpec &spec)
{
    ProtocolSpec s = spec;
    if (spec.makePolicy) {
        PolicyFactory inner = spec.makePolicy;
        s = hybridSpec(spec.id, spec.displayName, spec.description,
                       [inner](const Params &p) {
                           return std::unique_ptr<RelocationPolicy>(
                               std::make_unique<TracedPolicy>(
                                   inner(p)));
                       });
    }
    RadFactory rad = s.makeRad;
    s.makeRad = [rad](const Params &p, NodeId node, RadDeps deps) {
        return std::unique_ptr<Rad>(std::make_unique<TracedRad>(
            p, node, deps, rad(p, node, deps)));
    };
    return s;
}

Params
tracedParams(const Params &params)
{
    const std::string id = tracedNetPrefix + params.networkModel;
    if (!findNetworkSpec(id)) {
        NetworkSpec spec;
        spec.id = id;
        spec.displayName = "traced " + params.networkModel;
        spec.description = "span-recording pass-through around " +
                           params.networkModel;
        const std::string innerId = params.networkModel;
        spec.make = [innerId](const Params &p) {
            Params inner = p;
            inner.networkModel = innerId;
            return std::unique_ptr<NetworkModel>(
                std::make_unique<TracedNetwork>(makeNetwork(inner),
                                                p.niOccupancy));
        };
        NetworkRegistry::global().add(std::move(spec));
    }
    Params p = params;
    p.networkModel = id;
    return p;
}

SpanTreeCheck
checkSpanTree(const std::vector<Span> &spans, std::uint32_t cell)
{
    SpanTreeCheck c;
    std::vector<std::uint64_t> childNs(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.cell != cell)
            continue;
        if (s.parent < 0) {
            c.rootNs += s.end - s.start;
            continue;
        }
        const Span &parent = spans[static_cast<std::size_t>(s.parent)];
        if (parent.cell != cell || s.start < parent.start ||
            s.end > parent.end)
            c.nested = false;
        childNs[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.cell != cell)
            continue;
        const std::uint64_t self = s.end - s.start - childNs[i];
        const auto l = static_cast<std::size_t>(s.layer);
        c.totals.calls[l]++;
        c.totals.selfNs[l] += self;
        c.selfSumNs += self;
    }
    return c;
}

} // namespace perfbench
