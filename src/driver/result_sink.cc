#include "driver/result_sink.hh"

#include <algorithm>

#include "common/table.hh"
#include "driver/json.hh"

namespace rnuma::driver
{

namespace
{

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
    w.value(resultsSchema);
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
