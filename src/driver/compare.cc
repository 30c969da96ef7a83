#include "driver/compare.hh"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "driver/json.hh"

namespace rnuma::driver
{

namespace
{

/**
 * Scales match when equal to ~6 significant digits, so a scale that
 * went through a decimal round trip still matches its own baseline.
 */
bool
sameScale(double a, double b)
{
    double mag = std::fabs(a) > std::fabs(b) ? std::fabs(a)
                                             : std::fabs(b);
    return std::fabs(a - b) <= mag * 1e-5;
}

double
numberOr(const JsonValue *v, double fallback)
{
    return v && v->kind == JsonValue::Kind::Number ? v->number
                                                   : fallback;
}

std::string
stringOr(const JsonValue *v, const std::string &fallback)
{
    return v && v->kind == JsonValue::Kind::String ? v->str
                                                   : fallback;
}

/**
 * The checked count reader: @p v as a uint64_t, or @p fallback when
 * absent. A baseline comes from outside the program, so anything
 * but a non-negative integer below 2^64 (where casting the double
 * would be undefined) throws, naming @p where and @p field.
 */
std::uint64_t
countOr(const JsonValue *v, std::uint64_t fallback,
        const std::string &where, const std::string &field)
{
    if (!v)
        return fallback;
    // 2^64 is exact as a double; every integral double below it fits.
    constexpr double limit = 18446744073709551616.0;
    double d = v->number;
    if (v->kind != JsonValue::Kind::Number || !(d >= 0) ||
        d >= limit || d != std::floor(d)) {
        std::ostringstream msg;
        msg << where << ": field '" << field << "' is ";
        if (v->kind == JsonValue::Kind::Number)
            msg << d;
        else
            msg << "not a number";
        msg << ", not a count (an integer in [0, 2^64))";
        throw std::runtime_error(msg.str());
    }
    return static_cast<std::uint64_t>(d);
}

/** The top-level "figures" array, after an exact schema check. */
const JsonValue &
figuresOf(const JsonValue &doc, const std::string &schema)
{
    std::string found = stringOr(doc.get("schema"), "");
    if (found != schema) {
        throw std::runtime_error(
            "unsupported schema '" + found + "': this build reads "
            "only " + schema + " (re-record the baseline)");
    }
    const JsonValue *figures = doc.get("figures");
    if (!figures || !figures->isArray())
        throw std::runtime_error("missing 'figures' array");
    return *figures;
}

template <class Item>
const Item *
findNamed(const std::vector<Item> &items, const std::string &name)
{
    for (const Item &i : items)
        if (i.name == name)
            return &i;
    return nullptr;
}

template <class Cell>
const Cell *
findCell(const std::vector<Cell> &cells, const std::string &app,
         const std::string &config)
{
    for (const Cell &c : cells)
        if (c.app == app && c.config == config)
            return &c;
    return nullptr;
}

/** A gate's report: FAIL lines are counted as violations. */
struct Report
{
    std::ostream &os;
    std::size_t violations = 0;

    void fail(const std::string &msg)
    {
        violations++;
        os << "FAIL: " << msg << "\n";
    }

    /** A deterministic counter must match exactly. */
    void counter(const std::string &where, const std::string &name,
                 std::uint64_t baseline, std::uint64_t current)
    {
        if (baseline != current)
            fail(where + ": " + name + " drifted (baseline " +
                 std::to_string(baseline) + ", current " +
                 std::to_string(current) + ")");
    }
};

/**
 * The diff core both gates share: figure and cell matching, the
 * scale check, the missing/new notes, and the PASS/FAIL summary.
 * @p checkCell(report, "figure/app/config", baseline, current) runs
 * the gate's per-cell checks; @p checkFigure(report, baseline,
 * current, drifted) its per-figure ones after the cells.
 */
template <class Doc, class CellCheck, class FigureCheck>
std::size_t
diffDocs(const Doc &baseline, const Doc &current, const char *gate,
         std::ostream &os, CellCheck checkCell,
         FigureCheck checkFigure)
{
    Report r{os};
    for (const auto &bf : baseline.figures) {
        const auto *cf = current.find(bf.name);
        if (!cf) {
            r.fail(bf.name + ": figure missing from the current document");
            continue;
        }
        if (!sameScale(bf.scale, cf->scale)) {
            r.fail(bf.name + ": scale changed (baseline " +
                   std::to_string(bf.scale) + ", current " +
                   std::to_string(cf->scale) +
                   "); counters are not comparable — re-record the "
                   "baseline");
            continue;
        }
        std::size_t before = r.violations;
        for (const auto &bc : bf.cells) {
            std::string where =
                bf.name + "/" + bc.app + "/" + bc.config;
            const auto *cc = cf->find(bc.app, bc.config);
            if (cc)
                checkCell(r, where, bc, *cc);
            else
                r.fail(where + ": cell missing from the current document");
        }
        for (const auto &cc : cf->cells) {
            if (!bf.find(cc.app, cc.config))
                os << "note: " << bf.name << "/" << cc.app << "/"
                   << cc.config << " is new (not in baseline)\n";
        }
        checkFigure(r, bf, *cf, r.violations != before);
    }
    for (const auto &cf : current.figures) {
        if (!baseline.find(cf.name))
            os << "note: figure " << cf.name
               << " is new (not in baseline)\n";
    }
    os << gate << ": "
       << (r.violations == 0
               ? std::string("PASS")
               : "FAIL (" + std::to_string(r.violations) +
                     " violation(s))")
       << "\n";
    return r.violations;
}

} // namespace

const ResultCell *
ResultFigure::find(const std::string &app,
                   const std::string &config) const
{
    return findCell(cells, app, config);
}

const ResultFigure *
ResultDoc::find(const std::string &name) const
{
    return findNamed(figures, name);
}

ResultDoc
loadResults(const std::string &json_text)
{
    JsonValue doc = parseJson(json_text);
    ResultDoc out;
    for (const JsonValue &jf : figuresOf(doc, resultsSchema).array) {
        ResultFigure f;
        f.name = stringOr(jf.get("name"), "?");
        f.scale = numberOr(jf.get("scale"), 1.0);
        f.jobs = countOr(jf.get("jobs"), 1, f.name, "jobs");
        f.wallMs = numberOr(jf.get("wall_ms"), 0);
        const JsonValue *cells = jf.get("cells");
        if (cells && cells->isArray()) {
            for (const JsonValue &jc : cells->array) {
                ResultCell c;
                c.app = stringOr(jc.get("app"), "?");
                c.config = stringOr(jc.get("config"), "?");
                c.protocol = stringOr(jc.get("protocol"), "");
                c.network = stringOr(jc.get("network"), "");
                c.directory = stringOr(jc.get("directory"), "");
                c.workload = stringOr(jc.get("workload"), "");
                c.wallMs = numberOr(jc.get("wall_ms"), 0);
                const JsonValue *stats = jc.get("stats");
                if (stats) {
                    std::string where =
                        f.name + "/" + c.app + "/" + c.config;
                    for (const auto &kv : stats->object)
                        c.counters[kv.first] =
                            countOr(&kv.second, 0, where, kv.first);
                }
                f.cells.push_back(std::move(c));
            }
        }
        out.figures.push_back(std::move(f));
    }
    return out;
}

ResultDoc
resultsOf(const std::vector<FigureRun> &runs)
{
    ResultDoc out;
    for (const FigureRun &run : runs) {
        ResultFigure f;
        f.name = run.name;
        f.scale = run.scale;
        f.jobs = run.jobs;
        f.wallMs = run.wallMs;
        for (const CellResult &c : run.result.cells) {
            ResultCell rc;
            rc.app = c.app;
            rc.config = c.config;
            rc.protocol = c.protocol;
            rc.network = c.network;
            rc.directory = c.directory;
            rc.workload = c.workload;
            rc.wallMs = c.wallMs;
            for (const StatField &sf : statFields())
                rc.counters[sf.name] = sf.get(c.stats);
            f.cells.push_back(std::move(rc));
        }
        out.figures.push_back(std::move(f));
    }
    return out;
}

std::size_t
compareResults(const ResultDoc &baseline, const ResultDoc &current,
               const CompareOptions &opt, std::ostream &os)
{
    auto checkCell = [](Report &r, const std::string &where,
                        const ResultCell &b, const ResultCell &c) {
        auto get = [](const ResultCell &cell, const char *name) {
            auto it = cell.counters.find(name);
            return it == cell.counters.end() ? 0 : it->second;
        };
        for (const char *name : {"ticks", "events", "evictions_zero_hit",
                                 "evicted_page_hits"})
            r.counter(where, name, get(b, name), get(c, name));
        const std::pair<const char *, std::string ResultCell::*>
            ids[] = {{"protocol", &ResultCell::protocol},
                     {"network", &ResultCell::network},
                     {"directory", &ResultCell::directory},
                     {"workload", &ResultCell::workload}};
        for (const auto &[name, id] : ids) {
            if (b.*id != c.*id)
                r.fail(where + ": " + name + " changed (baseline '" +
                       b.*id + "', current '" + c.*id + "')");
        }
    };
    auto checkFigure = [&](Report &r, const ResultFigure &b,
                           const ResultFigure &c, bool drifted) {
        if (opt.wallTolerancePct < 0) {
            // determinism-only mode
        } else if (b.jobs != c.jobs) {
            r.os << "note: " << b.name
                 << ": wall-time check skipped (baseline ran with "
                 << b.jobs << " jobs, current with " << c.jobs
                 << ")\n";
        } else if (b.wallMs > 0) {
            double limit =
                b.wallMs * (1.0 + opt.wallTolerancePct / 100.0);
            double delta_pct = (c.wallMs / b.wallMs - 1.0) * 100.0;
            if (c.wallMs > limit) {
                r.fail(b.name + ": wall time regressed " +
                       std::to_string(delta_pct) + "% (baseline " +
                       std::to_string(b.wallMs) + " ms, current " +
                       std::to_string(c.wallMs) + " ms, tolerance " +
                       std::to_string(opt.wallTolerancePct) + "%)");
            } else {
                r.os << "ok:   " << b.name << ": wall " << c.wallMs
                     << " ms vs baseline " << b.wallMs << " ms ("
                     << (delta_pct >= 0 ? "+" : "") << delta_pct
                     << "%)" << (drifted ? "" : ", ticks identical")
                     << "\n";
            }
        }
    };
    return diffDocs(baseline, current, "compare", os, checkCell,
                    checkFigure);
}

//--------------------------------------------------------------------------
// Measured-performance (bench) artifacts
//--------------------------------------------------------------------------

const BenchCell *
BenchFigure::find(const std::string &app,
                  const std::string &config) const
{
    return findCell(cells, app, config);
}

const BenchFigure *
BenchDoc::find(const std::string &name) const
{
    return findNamed(figures, name);
}

BenchDoc
loadBench(const std::string &json_text)
{
    JsonValue doc = parseJson(json_text);
    BenchDoc out;
    const JsonValue &figures = figuresOf(doc, benchSchema);
    out.runs = countOr(doc.get("runs"), 0, "bench document", "runs");
    out.scale = numberOr(doc.get("scale"), 1.0);
    out.jobs = countOr(doc.get("jobs"), 1, "bench document", "jobs");
    for (const JsonValue &jf : figures.array) {
        BenchFigure f;
        f.name = stringOr(jf.get("name"), "?");
        f.scale = numberOr(jf.get("scale"), out.scale);
        const JsonValue *cells = jf.get("cells");
        if (cells && cells->isArray()) {
            for (const JsonValue &jc : cells->array) {
                BenchCell c;
                c.app = stringOr(jc.get("app"), "?");
                c.config = stringOr(jc.get("config"), "?");
                c.protocol = stringOr(jc.get("protocol"), "");
                std::string where =
                    f.name + "/" + c.app + "/" + c.config;
                c.events = countOr(jc.get("events"), 0, where, "events");
                c.ticks = countOr(jc.get("ticks"), 0, where, "ticks");
                c.refs = countOr(jc.get("refs"), 0, where, "refs");
                c.eventsPerInstruction = numberOr(
                    jc.get("events_per_instruction"), 0);
                c.medianEventsPerSec = numberOr(
                    jc.get("median_events_per_sec"), 0);
                f.cells.push_back(std::move(c));
            }
        }
        out.figures.push_back(std::move(f));
    }
    return out;
}

void
writeBench(std::ostream &os, const BenchDoc &doc)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value(benchSchema);
    w.key("runs");
    w.value(static_cast<std::uint64_t>(doc.runs));
    w.key("scale");
    w.value(doc.scale);
    w.key("jobs");
    w.value(static_cast<std::uint64_t>(doc.jobs));
    w.key("figures");
    w.beginArray();
    for (const BenchFigure &f : doc.figures) {
        w.beginObject();
        w.key("name");
        w.value(f.name);
        w.key("scale");
        w.value(f.scale);
        w.key("cells");
        w.beginArray();
        for (const BenchCell &c : f.cells) {
            w.beginObject();
            w.key("app");
            w.value(c.app);
            w.key("config");
            w.value(c.config);
            if (!c.protocol.empty()) {
                w.key("protocol");
                w.value(c.protocol);
            }
            w.key("events");
            w.value(c.events);
            w.key("ticks");
            w.value(c.ticks);
            w.key("refs");
            w.value(c.refs);
            w.key("events_per_instruction");
            w.value(c.eventsPerInstruction);
            w.key("median_events_per_sec");
            w.value(c.medianEventsPerSec);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

std::size_t
compareBench(const BenchDoc &baseline, const BenchDoc &current,
             const BenchCompareOptions &opt, std::ostream &os)
{
    if (baseline.runs != current.runs)
        os << "note: baseline medians are of " << baseline.runs
           << " runs, current of " << current.runs << "\n";
    // Host throughput does not compare across differing sweep
    // concurrency; counters still must match.
    bool rateChecked = opt.ratePct >= 0;
    if (rateChecked && baseline.jobs != current.jobs) {
        os << "note: events/sec check skipped (baseline ran with "
           << baseline.jobs << " jobs, current with " << current.jobs
           << ")\n";
        rateChecked = false;
    }

    double worst_drop = 0;
    auto checkCell = [&](Report &r, const std::string &where,
                         const BenchCell &b, const BenchCell &c) {
        r.counter(where, "events", b.events, c.events);
        r.counter(where, "ticks", b.ticks, c.ticks);
        r.counter(where, "refs", b.refs, c.refs);
        if (!rateChecked || b.medianEventsPerSec <= 0)
            return;
        double drop_pct =
            (1.0 - c.medianEventsPerSec / b.medianEventsPerSec) *
            100.0;
        if (drop_pct > worst_drop)
            worst_drop = drop_pct;
        if (drop_pct > opt.ratePct) {
            r.fail(where + ": median events/sec regressed " +
                   std::to_string(drop_pct) + "% (baseline " +
                   std::to_string(b.medianEventsPerSec) +
                   ", current " +
                   std::to_string(c.medianEventsPerSec) +
                   ", tolerance " + std::to_string(opt.ratePct) +
                   "%)");
        }
    };
    auto checkFigure = [&](Report &r, const BenchFigure &b,
                           const BenchFigure &, bool drifted) {
        if (!drifted)
            r.os << "ok:   " << b.name << ": counters identical"
                 << (rateChecked ? ", worst events/sec drop " +
                                       std::to_string(worst_drop) +
                                       "%"
                                 : "")
                 << "\n";
        worst_drop = 0;
    };
    return diffDocs(baseline, current, "bench-compare", os, checkCell,
                    checkFigure);
}

} // namespace rnuma::driver
