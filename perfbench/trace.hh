/**
 * @file
 * Outside-in layer tracing for the benchmark. The simulator is not
 * instrumented: the traced run swaps in pass-through wrappers at the
 * three seams the simulator already exposes,
 *
 *  - the RAD, through ProtocolSpec::makeRad;
 *  - the relocation policy, by rebuilding a hybrid spec with
 *    hybridSpec() around the spec's makePolicy;
 *  - the network, by registering a pass-through NetworkSpec and
 *    selecting it through Params::networkModel,
 *
 * and each wrapper records one span per call. Spans nest: the
 * benchmark opens a `sim.run` root around Machine::run(), network and
 * policy spans open inside the RAD spans that cause them, and a
 * layer's self time is its span time minus its children's. The
 * wrappers delegate every call unchanged, so a traced run's RunStats
 * equal the untraced run's; the benchmark checks this on every run.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/params.hh"
#include "net/network.hh"
#include "proto/registry.hh"
#include "rad/rad.hh"

namespace perfbench
{

/** The traced boundaries. Every span carries one of these names. */
enum class Layer : std::uint8_t
{
    SimRun,        ///< Machine::run(), the root of a cell's tree
    RadLocal,      ///< RAD access served by the block or page cache
    RadRemote,     ///< RAD access that went home (rad + proto + memory)
    RadInvalidate, ///< directory-initiated invalidate or downgrade
    RadWriteback,  ///< L1 writeback into the RAD
    CorePolicy,    ///< relocation-policy notification
    NetSend,       ///< NetworkModel::send
    NetPost,       ///< NetworkModel::post
};

constexpr std::size_t numLayers = 8;

/** The span name of a layer ("rad.remote", ...). */
const char *layerName(Layer layer);

/** One recorded span. Times are ns since the tracer's epoch. */
struct Span
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    /** Index of the parent span in Tracer::spans(); -1 for a root. */
    std::int64_t parent = -1;
    std::uint32_t cell = 0;
    Layer layer = Layer::SimRun;
};

/** Calls and self time per layer, summed over the spans closed. */
struct LayerTotals
{
    std::uint64_t calls[numLayers] = {};
    std::uint64_t selfNs[numLayers] = {};

    std::uint64_t callsOf(Layer l) const
    {
        return calls[static_cast<std::size_t>(l)];
    }
    std::uint64_t selfNsOf(Layer l) const
    {
        return selfNs[static_cast<std::size_t>(l)];
    }
};

/**
 * The process-wide span recorder (the benchmark is single-threaded).
 * Totals are exact over every span; the span records themselves are
 * kept in memory up to a cap and written out when the run ends.
 */
class Tracer
{
  public:
    /** Open a span; its name is given when it closes. */
    void
    begin()
    {
        Frame f;
        f.start = now();
        if (spans_.size() < spanCap_) {
            f.index = static_cast<std::int64_t>(spans_.size());
            Span s;
            s.start = f.start;
            s.parent = stack_.empty() ? -1 : stack_.back().index;
            s.cell = cell_;
            spans_.push_back(s);
        } else {
            ++dropped_;
        }
        stack_.push_back(f);
    }

    /** Close the innermost span under the name @p layer. */
    void
    end(Layer layer)
    {
        const std::uint64_t t = now();
        Frame f = stack_.back();
        stack_.pop_back();
        const std::uint64_t dur = t - f.start;
        const auto l = static_cast<std::size_t>(layer);
        totals_.calls[l]++;
        totals_.selfNs[l] += dur - f.childNs;
        if (!stack_.empty())
            stack_.back().childNs += dur;
        if (f.index >= 0) {
            Span &s = spans_[static_cast<std::size_t>(f.index)];
            s.end = t;
            s.layer = layer;
        }
    }

    /** The cell id stamped on spans opened from now on. */
    void setCell(std::uint32_t cell) { cell_ = cell; }

    /** Keep at most @p cap span records (totals stay exact). */
    void setSpanCap(std::size_t cap) { spanCap_ = cap; }

    /** Forget all spans and totals. Requires no open span. */
    void clear();

    const LayerTotals &totals() const { return totals_; }
    const std::vector<Span> &spans() const { return spans_; }
    /** Spans closed past the cap (counted in totals, not kept). */
    std::uint64_t dropped() const { return dropped_; }

    /** Write the kept spans as TSV: id, parent, cell, name, start, end. */
    bool writeSpans(const std::string &path) const;

  private:
    struct Frame
    {
        std::uint64_t start = 0;
        std::uint64_t childNs = 0;
        std::int64_t index = -1;
    };

    std::uint64_t
    now() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<Frame> stack_;
    std::vector<Span> spans_;
    std::size_t spanCap_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint32_t cell_ = 0;
    LayerTotals totals_;
};

/** The benchmark's tracer. */
Tracer &tracer();

/**
 * The traced variant of @p spec: its RAD (and, for hybrid specs, its
 * relocation policy) wrapped in span-recording pass-throughs.
 */
rnuma::ProtocolSpec tracedSpec(const rnuma::ProtocolSpec &spec);

/**
 * @p params with the network swapped for a span-recording
 * pass-through around the model it selected. Registers the
 * pass-through NetworkSpec on first use.
 */
rnuma::Params tracedParams(const rnuma::Params &params);

/** Per-layer self time of one cell, recomputed from its span tree. */
struct SpanTreeCheck
{
    bool nested = true;           ///< every child inside its parent
    std::uint64_t rootNs = 0;     ///< duration of the sim.run root
    std::uint64_t selfSumNs = 0;  ///< sum of self times in the tree
    LayerTotals totals;           ///< recomputed per-layer totals
};

/** Rebuild the span tree of @p cell from the kept spans. */
SpanTreeCheck checkSpanTree(const std::vector<Span> &spans,
                            std::uint32_t cell);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
