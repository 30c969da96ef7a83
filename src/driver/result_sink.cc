#include "driver/result_sink.hh"

#include <algorithm>

#include "common/table.hh"
#include "driver/json.hh"

namespace rnuma::driver
{

namespace
{

// v2 added per-cell "events" (in stats) and "events_per_sec", plus
// the figure-level workload-cache counters — the fields the
// perf-baseline gate (rnuma_sweep --compare) consumes. v3 switches
// the per-cell "protocol" field from the enum-era display name
// ("CC-NUMA") to the registry's stable spec id ("ccnuma",
// "rnuma-t16", ...) and adds "protocol_name" with the display name;
// the gate canonicalizes enum-era labels when reading older
// baselines. v4 adds the per-figure "protocols" array: the distinct
// spec ids the figure's cells ran, in first-appearance order — the
// field CI validates to prove a registered protocol actually
// reached the figure pipeline. v5 adds the per-cell "network" and
// "directory" ids (the interconnect model and directory sharer-set
// format the cell ran under) and the net_*/dir_* stat fields; the
// gate defaults pre-v5 cells to "constant"/"full-map". v6 added a
// per-cell job count for a since-removed intra-cell engine; it is no
// longer written and readers ignore it.
// No v9 for dropping it: readers defaulted it to 1, so it is compatible both ways.
// v7 adds the per-cell "workload" field: the
// workload-registry id of the generator behind the cell ("barnes",
// "zipf-serve", ...; "" for an ad-hoc factory). Pre-v7 cells carried
// no workload ids, so the gate treats a workload mismatch against
// older baselines as a note, not a violation. v8 adds the
// residency-feedback counters
// "evictions_zero_hit" / "evicted_page_hits" (how wasted the
// evicted relocations were); they are absent from pre-v8 baselines,
// so the gate only enforces them when both documents are v8+ and
// reports pre-v8 differences as notes.
constexpr const char *schemaName = "rnuma-sweep-results/v8";

std::uint64_t
remotePages(const RunStats &s)
{
    return static_cast<std::uint64_t>(s.remotePageCount());
}

} // namespace

std::vector<std::string>
protocolsOf(const SweepResult &result)
{
    std::vector<std::string> ids;
    for (const CellResult &c : result.cells) {
        if (std::find(ids.begin(), ids.end(), c.protocol) ==
            ids.end())
            ids.push_back(c.protocol);
    }
    return ids;
}

const std::vector<StatField> &
statFields()
{
    static const std::vector<StatField> fields = {
        {"ticks", [](const RunStats &s) { return s.ticks; }},
        {"events", [](const RunStats &s) { return s.events; }},
        {"refs", [](const RunStats &s) { return s.refs; }},
        {"l1_hits", [](const RunStats &s) { return s.l1Hits; }},
        {"l1_misses", [](const RunStats &s) { return s.l1Misses; }},
        {"upgrades", [](const RunStats &s) { return s.upgrades; }},
        {"barriers", [](const RunStats &s) { return s.barriers; }},
        {"local_fills",
         [](const RunStats &s) { return s.localFills; }},
        {"node_transfers",
         [](const RunStats &s) { return s.nodeTransfers; }},
        {"block_cache_hits",
         [](const RunStats &s) { return s.blockCacheHits; }},
        {"page_cache_hits",
         [](const RunStats &s) { return s.pageCacheHits; }},
        {"remote_fetches",
         [](const RunStats &s) { return s.remoteFetches; }},
        {"refetches", [](const RunStats &s) { return s.refetches; }},
        {"coherence_misses",
         [](const RunStats &s) { return s.coherenceMisses; }},
        {"cold_misses",
         [](const RunStats &s) { return s.coldMisses; }},
        {"invalidations_sent",
         [](const RunStats &s) { return s.invalidationsSent; }},
        {"forwards", [](const RunStats &s) { return s.forwards; }},
        {"writebacks",
         [](const RunStats &s) { return s.writebacks; }},
        {"flushed_blocks",
         [](const RunStats &s) { return s.flushedBlocks; }},
        {"page_faults",
         [](const RunStats &s) { return s.pageFaults; }},
        {"scoma_allocations",
         [](const RunStats &s) { return s.scomaAllocations; }},
        {"scoma_replacements",
         [](const RunStats &s) { return s.scomaReplacements; }},
        {"relocations",
         [](const RunStats &s) { return s.relocations; }},
        {"evictions_zero_hit",
         [](const RunStats &s) { return s.evictionsZeroHit; }},
        {"evicted_page_hits",
         [](const RunStats &s) { return s.evictedPageHits; }},
        {"bus_wait", [](const RunStats &s) { return s.busWait; }},
        {"ni_wait", [](const RunStats &s) { return s.niWait; }},
        {"os_cycles", [](const RunStats &s) { return s.osCycles; }},
        {"stall_cycles",
         [](const RunStats &s) { return s.stallCycles; }},
        {"remote_pages", &remotePages},
        {"net_requests",
         [](const RunStats &s) {
             return s.net.count(MsgKind::Request);
         }},
        {"net_replies",
         [](const RunStats &s) {
             return s.net.count(MsgKind::Reply);
         }},
        {"net_invalidates",
         [](const RunStats &s) {
             return s.net.count(MsgKind::Invalidate);
         }},
        {"net_forwards",
         [](const RunStats &s) {
             return s.net.count(MsgKind::Forward);
         }},
        {"net_writebacks",
         [](const RunStats &s) {
             return s.net.count(MsgKind::Writeback);
         }},
        {"net_flushes",
         [](const RunStats &s) {
             return s.net.count(MsgKind::Flush);
         }},
        {"net_messages",
         [](const RunStats &s) { return s.net.totalMessages(); }},
        {"dir_entries",
         [](const RunStats &s) { return s.dirEntries; }},
        {"dir_bits", [](const RunStats &s) { return s.dirBits; }},
    };
    return fields;
}

void
JsonSink::write(std::ostream &os,
                const std::vector<FigureRun> &runs) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value(schemaName);
    w.key("figures");
    w.beginArray();
    for (const FigureRun &run : runs) {
        w.beginObject();
        w.key("name");
        w.value(run.name);
        w.key("title");
        w.value(run.title);
        w.key("paper_ref");
        w.value(run.paperRef);
        w.key("scale");
        w.value(run.scale);
        w.key("jobs");
        w.value(static_cast<std::uint64_t>(run.jobs));
        w.key("wall_ms");
        w.value(run.wallMs);
        w.key("status");
        w.value(static_cast<std::uint64_t>(
            run.status < 0 ? 0 : run.status));
        w.key("workloads_generated");
        w.value(static_cast<std::uint64_t>(
            run.result.workloadsGenerated));
        w.key("workload_cache_hits");
        w.value(static_cast<std::uint64_t>(
            run.result.workloadCacheHits));
        w.key("protocols");
        w.beginArray();
        for (const std::string &id : protocolsOf(run.result))
            w.value(id);
        w.endArray();
        w.key("cells");
        w.beginArray();
        for (const CellResult &c : run.result.cells) {
            w.beginObject();
            w.key("app");
            w.value(c.app);
            w.key("config");
            w.value(c.config);
            w.key("protocol");
            w.value(c.protocol);
            w.key("protocol_name");
            w.value(c.protocolName);
            w.key("network");
            w.value(c.network);
            w.key("directory");
            w.value(c.directory);
            w.key("workload");
            w.value(c.workload);
            w.key("wall_ms");
            w.value(c.wallMs);
            w.key("events_per_sec");
            w.value(c.eventsPerSec());
            w.key("stats");
            w.beginObject();
            for (const StatField &f : statFields()) {
                w.key(f.name);
                w.value(f.get(c.stats));
            }
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
CsvSink::write(std::ostream &os,
               const std::vector<FigureRun> &runs) const
{
    os << "figure,scale,app,config,protocol,network,directory,"
          "workload,wall_ms,events_per_sec";
    for (const StatField &f : statFields())
        os << "," << f.name;
    os << "\n";
    for (const FigureRun &run : runs) {
        for (const CellResult &c : run.result.cells) {
            os << run.name << "," << run.scale << "," << c.app << ","
               << c.config << "," << c.protocol << ","
               << c.network << "," << c.directory << ","
               << c.workload << ","
               << c.wallMs << "," << c.eventsPerSec();
            for (const StatField &f : statFields())
                os << "," << f.get(c.stats);
            os << "\n";
        }
    }
}

void
TableSink::write(std::ostream &os,
                 const std::vector<FigureRun> &runs) const
{
    for (const FigureRun &run : runs) {
        os << run.name << ": " << run.title << " (scale "
           << run.scale << ", " << run.result.cells.size()
           << " cells)\n";
        Table t({"app", "config", "protocol", "ticks", "refs",
                 "remote fetches", "refetches", "relocations"});
        for (const CellResult &c : run.result.cells) {
            t.addRow({c.app, c.config, c.protocol,
                      std::to_string(c.stats.ticks),
                      std::to_string(c.stats.refs),
                      std::to_string(c.stats.remoteFetches),
                      std::to_string(c.stats.refetches),
                      std::to_string(c.stats.relocations)});
        }
        t.print(os);
        os << "\n";
    }
}

} // namespace rnuma::driver
