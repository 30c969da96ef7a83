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
 * The checked count reader. A baseline comes from outside the
 * program, so anything but a non-negative integer below 2^64 (where
 * casting the double would be undefined) throws, naming @p where and
 * @p field.
 */
std::uint64_t
count(const JsonValue &v, const std::string &where,
      const std::string &field)
{
    // 2^64 is exact as a double; every integral double below it fits.
    constexpr double limit = 18446744073709551616.0;
    double d = v.number;
    if (v.kind != JsonValue::Kind::Number || !(d >= 0) ||
        d >= limit || d != std::floor(d)) {
        std::ostringstream msg;
        msg << where << ": field '" << field << "' is ";
        if (v.kind == JsonValue::Kind::Number)
            msg << d;
        else
            msg << "not a number";
        msg << ", not a count (an integer in [0, 2^64))";
        throw std::runtime_error(msg.str());
    }
    return static_cast<std::uint64_t>(d);
}

/** The gate's report: FAIL lines are counted as violations. */
struct Report
{
    std::ostream &os;
    std::size_t violations = 0;

    void fail(const std::string &msg)
    {
        violations++;
        os << "FAIL: " << msg << "\n";
    }
};

/**
 * Every counter of one cell, exactly, over the union of both sides'
 * keys (one merge pass over the two sorted maps), then its registry
 * ids.
 */
void
checkCell(Report &r, const std::string &where, const ResultCell &b,
          const ResultCell &c)
{
    auto bi = b.counters.begin();
    auto ci = c.counters.begin();
    while (bi != b.counters.end() || ci != c.counters.end()) {
        if (ci == c.counters.end() ||
            (bi != b.counters.end() && bi->first < ci->first)) {
            r.fail(where + ": counter " + bi->first +
                   " missing from the current document");
            ++bi;
        } else if (bi == b.counters.end() || ci->first < bi->first) {
            r.fail(where + ": counter " + ci->first +
                   " missing from the baseline");
            ++ci;
        } else {
            if (bi->second != ci->second)
                r.fail(where + ": " + bi->first +
                       " drifted (baseline " +
                       std::to_string(bi->second) + ", current " +
                       std::to_string(ci->second) + ")");
            ++bi;
            ++ci;
        }
    }
    const std::pair<const char *, std::string ResultCell::*> ids[] = {
        {"protocol", &ResultCell::protocol},
        {"network", &ResultCell::network},
        {"directory", &ResultCell::directory},
        {"workload", &ResultCell::workload}};
    for (const auto &[name, id] : ids) {
        if (b.*id != c.*id)
            r.fail(where + ": " + name + " changed (baseline '" +
                   b.*id + "', current '" + c.*id + "')");
    }
}

} // namespace

const ResultCell *
ResultFigure::find(const std::string &app,
                   const std::string &config) const
{
    for (const ResultCell &c : cells)
        if (c.app == app && c.config == config)
            return &c;
    return nullptr;
}

const ResultFigure *
ResultDoc::find(const std::string &name) const
{
    for (const ResultFigure &f : figures)
        if (f.name == name)
            return &f;
    return nullptr;
}

std::size_t
compareResults(const ResultDoc &baseline, const ResultDoc &current,
               std::ostream &os)
{
    Report r{os};
    for (const ResultFigure &bf : baseline.figures) {
        const ResultFigure *cf = current.find(bf.name);
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
        for (const ResultCell &bc : bf.cells) {
            std::string where =
                bf.name + "/" + bc.app + "/" + bc.config;
            const ResultCell *cc = cf->find(bc.app, bc.config);
            if (cc)
                checkCell(r, where, bc, *cc);
            else
                r.fail(where + ": cell missing from the current document");
        }
        for (const ResultCell &cc : cf->cells) {
            if (!bf.find(cc.app, cc.config))
                os << "note: " << bf.name << "/" << cc.app << "/"
                   << cc.config << " is new (not in baseline)\n";
        }
        if (r.violations == before)
            os << "ok:   " << bf.name << ": " << bf.cells.size()
               << " cells, counters identical\n";
    }
    for (const ResultFigure &cf : current.figures) {
        if (!baseline.find(cf.name))
            os << "note: figure " << cf.name
               << " is new (not in baseline)\n";
    }
    os << "compare: "
       << (r.violations == 0
               ? std::string("PASS")
               : "FAIL (" + std::to_string(r.violations) +
                     " violation(s))")
       << "\n";
    return r.violations;
}

ResultDoc
loadResults(const std::string &json_text)
{
    JsonValue doc = parseJson(json_text);
    std::string schema = stringOr(doc.get("schema"), "");
    if (schema != resultsSchema) {
        throw std::runtime_error(
            "unsupported schema '" + schema + "': this build reads "
            "only " + resultsSchema + " (re-record the baseline)");
    }
    const JsonValue *figures = doc.get("figures");
    if (!figures || !figures->isArray())
        throw std::runtime_error("missing 'figures' array");
    ResultDoc out;
    for (const JsonValue &jf : figures->array) {
        ResultFigure f;
        f.name = stringOr(jf.get("name"), "?");
        f.scale = numberOr(jf.get("scale"), 1.0);
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
                const JsonValue *stats = jc.get("stats");
                if (stats) {
                    std::string where =
                        f.name + "/" + c.app + "/" + c.config;
                    for (const auto &kv : stats->object)
                        c.counters[kv.first] =
                            count(kv.second, where, kv.first);
                }
                f.cells.push_back(std::move(c));
            }
        }
        out.figures.push_back(std::move(f));
    }
    return out;
}

} // namespace rnuma::driver
