#include "driver/figures.hh"

#include <chrono>
#include <memory>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/analytic_model.hh"
#include "mem/memory.hh"
#include "net/network.hh"
#include "net/registry.hh"
#include "proto/protocol.hh"
#include "proto/registry.hh"
#include "sim/runner.hh"
#include "workload/registry.hh"

namespace rnuma::driver
{

namespace
{

/** The three systems the paper compares, as spec ids. */
const std::vector<std::string> paperSystems = {"ccnuma", "scoma",
                                               "rnuma"};

/** A cell's protocol as a table label: display name, else id. */
const std::string &
label(const CellResult &c)
{
    return c.protocolName.empty() ? c.protocol : c.protocolName;
}

/** A cell's relocation policy, described for the base machine. */
std::string
policyOf(const CellResult &c)
{
    const ProtocolSpec *spec = findProtocolSpec(c.protocol);
    return spec && spec->makePolicy
        ? spec->makePolicy(Params::base())->describe() : "-";
}

/**
 * The fastest of the paper's three systems on @p app; R-NUMA wins
 * ties with the best base system.
 */
const char *
winner(const SweepResult &r, const std::string &app)
{
    if (r.norm(app, "rnuma") <= r.bestOfBase(app))
        return "R-NUMA";
    return r.norm(app, "ccnuma") < r.norm(app, "scoma") ? "CC-NUMA"
                                                        : "S-COMA";
}

/**
 * Close an extension figure's invariant check: print one MISMATCH
 * line per failed invariant (each names its row) and return the
 * exit status, 1 when any failed. A pass prints nothing, so the
 * rendered table is unchanged.
 */
int
reportMismatches(const std::vector<std::string> &failed,
                 std::ostream &os)
{
    if (failed.empty())
        return 0;
    os << "\n";
    for (const std::string &f : failed)
        os << "MISMATCH: " << f << "\n";
    return 1;
}

//--------------------------------------------------------------------------
// Figure 5: the refetch CDF over remote pages (CC-NUMA, 32 KB cache).
//--------------------------------------------------------------------------

Sweep
buildFig5(double scale)
{
    Sweep s("fig5");
    Params p = Params::base();
    for (const std::string &app : workloadIds("app"))
        s.addApp(app, "ccnuma", p, "ccnuma", scale);
    return s;
}

int
renderFig5(const FigureRun &run, std::ostream &os)
{
    Table t({"app", "remote pages", "refetches", "top10%", "top20%",
             "top30%", "top50%", "top70%", "top90%"});
    for (const CellResult &c : run.result.cells) {
        auto dist = c.stats.refetchDistribution();
        std::uint64_t total = 0;
        for (auto v : dist)
            total += v;
        if (total == 0) {
            t.addRow({c.app, std::to_string(dist.size()), "0",
                      "-", "-", "-", "-", "-", "-"});
            continue;
        }
        auto cum_at = [&](double frac) {
            std::size_t n = static_cast<std::size_t>(
                static_cast<double>(dist.size()) * frac + 0.5);
            if (n == 0)
                n = 1;
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < n && i < dist.size(); ++i)
                cum += dist[i];
            return static_cast<double>(cum) /
                static_cast<double>(total);
        };
        t.addRow({c.app, std::to_string(dist.size()),
                  std::to_string(total), Table::pct(cum_at(0.1)),
                  Table::pct(cum_at(0.2)), Table::pct(cum_at(0.3)),
                  Table::pct(cum_at(0.5)), Table::pct(cum_at(0.7)),
                  Table::pct(cum_at(0.9))});
    }
    t.print(os);
    os << "\npaper shape: in four applications <10% of remote pages "
          "account for >80%\nof refetches; ~30% of pages cover "
          "~70% in all but radix, whose refetches\nare spread "
          "nearly uniformly; fft has none.\n";
    return 0;
}

//--------------------------------------------------------------------------
// Figure 6: CC-NUMA vs S-COMA vs R-NUMA, normalized to the infinite
// baseline.
//--------------------------------------------------------------------------

Sweep
buildFig6(double scale)
{
    Sweep s("fig6");
    Params p = Params::base();
    for (const std::string &app : workloadIds("app")) {
        s.addComparison(app, p, {app, p, scale}, paperSystems);
    }
    return s;
}

int
renderFig6(const FigureRun &run, std::ostream &os)
{
    Table t({"app", "CC-NUMA", "S-COMA", "R-NUMA", "best", "winner",
             "R-NUMA vs best"});
    double worst_gap = 0;
    std::string worst_app;
    const SweepResult &r = run.result;
    for (const std::string &app : workloadIds("app")) {
        double rn = r.norm(app, "rnuma");
        double best = r.bestOfBase(app);
        double gap = rn / best - 1.0;
        if (gap > worst_gap) {
            worst_gap = gap;
            worst_app = app;
        }
        t.addRow({app, Table::num(r.norm(app, "ccnuma")),
                  Table::num(r.norm(app, "scoma")), Table::num(rn),
                  Table::num(best), winner(r, app),
                  gap <= 0 ? "best" : "+" + Table::pct(gap)});
    }
    t.print(os);
    os << "\nworst R-NUMA gap vs best of CC/SC: +"
       << Table::pct(worst_gap) << " (" << worst_app
       << "); paper: at most +57%.\n"
       << "paper extremes: CC-NUMA up to 179% slower than "
          "S-COMA (moldyn-like);\nS-COMA up to 315% slower "
          "than CC-NUMA (fmm/radix-like).\n";
    return 0;
}

//--------------------------------------------------------------------------
// Figure 7: cache-size sensitivity.
//--------------------------------------------------------------------------

Sweep
buildFig7(double scale)
{
    Sweep s("fig7");
    Params base = Params::base();
    Params inf = base;
    inf.infiniteBlockCache = true;
    Params cc1k = base;
    cc1k.blockCacheSize = 1024;
    Params rn_bigbc = base;
    rn_bigbc.rnumaBlockCacheSize = 32 * 1024;
    Params rn_bigpc = base;
    rn_bigpc.pageCacheSize = 40 * 1024 * 1024;
    const ProtocolSpec &cc = protocolSpec("ccnuma");
    const ProtocolSpec &rn = protocolSpec("rnuma");
    for (const std::string &app : workloadIds("app")) {
        // One input per row: fmm derives its anti-aliasing pool
        // from the block-cache geometry, so every cache-size column
        // must measure the identical trace generated from the base
        // machine (as the original harness did). The shared input
        // makes the runner generate that trace exactly once.
        WorkloadInput wl(app, base, scale);
        s.add({app, "baseline", cc, inf, wl});
        s.add({app, "cc-b1k", cc, cc1k, wl});
        s.add({app, "cc-b32k", cc, base, wl});
        s.add({app, "rn-b128-p320k", rn, base, wl});
        s.add({app, "rn-b32k-p320k", rn, rn_bigbc, wl});
        s.add({app, "rn-b128-p40m", rn, rn_bigpc, wl});
    }
    return s;
}

int
renderFig7(const FigureRun &run, std::ostream &os)
{
    Table t({"app", "CC b=1K", "CC b=32K", "RN b=128,p=320K",
             "RN b=32K,p=320K", "RN b=128,p=40M"});
    for (const std::string &app : workloadIds("app")) {
        std::vector<std::string> row{app};
        for (const char *config : {"cc-b1k", "cc-b32k", "rn-b128-p320k",
                                   "rn-b32k-p320k", "rn-b128-p40m"})
            row.push_back(Table::num(run.result.norm(app, config)));
        t.addRow(row);
    }
    t.print(os);
    os << "\npaper shape: em3d/fft perform well even at b=1K; "
          "barnes/moldyn/raytrace\nneed only a tiny block cache "
          "under R-NUMA (the page cache captures the\nreuse set); "
          "cholesky/fmm/radix degrade up to ~2x at b=1K under "
          "CC-NUMA;\nlu/ocean degrade up to ~7x. R-NUMA is "
          "insensitive to block-cache size\nunless the reuse set "
          "misses the page cache (fmm, radix, ocean improve\nwith "
          "b=32K or p=40M).\n";
    return 0;
}

//--------------------------------------------------------------------------
// Figure 8: relocation-threshold sensitivity, normalized to T=64.
// A policy sweep: every column runs the identical machine under an
// R-NUMA variant whose StaticThresholdPolicy pins T — the threshold
// is a property of the relocation policy, not of the hardware
// configuration, exactly the paper's framing of Figure 8.
//--------------------------------------------------------------------------

constexpr std::size_t fig8Thresholds[] = {16, 64, 256, 1024};

Sweep
buildFig8(double scale)
{
    Sweep s("fig8");
    Params base = Params::base();
    for (const std::string &app : workloadIds("app")) {
        WorkloadInput wl(app, base, scale);
        for (std::size_t T : fig8Thresholds) {
            s.add({app, "t" + std::to_string(T),
                   staticThresholdSpec(T), base, wl});
        }
    }
    return s;
}

int
renderFig8(const FigureRun &run, std::ostream &os)
{
    Table t({"app", "T=16", "T=64", "T=256", "T=1024"});
    for (const std::string &app : workloadIds("app")) {
        std::vector<std::string> row{app};
        for (std::size_t T : fig8Thresholds) {
            row.push_back(Table::num(
                run.result.norm(app, "t" + std::to_string(T), "t64")));
        }
        t.addRow(row);
    }
    t.print(os);
    os << "\npaper shape: performance varies by at most ~27% for "
          "most applications;\napplications with many reuse pages "
          "(cholesky, fmm, lu, ocean) gain up to\n~25% from the "
          "lower threshold of 16; communication-dominated "
          "applications\nare insensitive.\n";
    return 0;
}

//--------------------------------------------------------------------------
// Figure 9: page-fault / TLB overhead sensitivity.
//--------------------------------------------------------------------------

Sweep
buildFig9(double scale)
{
    Sweep s("fig9");
    Params base = Params::base();
    Params inf = base;
    inf.infiniteBlockCache = true;
    Params soft = Params::soft();
    const ProtocolSpec &cc = protocolSpec("ccnuma");
    const ProtocolSpec &sc = protocolSpec("scoma");
    const ProtocolSpec &rn = protocolSpec("rnuma");
    for (const std::string &app : workloadIds("app")) {
        WorkloadInput wl(app, base, scale);
        s.add({app, "baseline", cc, inf, wl});
        s.add({app, "scoma", sc, base, wl});
        s.add({app, "scoma-soft", sc, soft, wl});
        s.add({app, "rnuma", rn, base, wl});
        s.add({app, "rnuma-soft", rn, soft, wl});
    }
    return s;
}

int
renderFig9(const FigureRun &run, std::ostream &os)
{
    Table t({"app", "S-COMA", "S-COMA-SOFT", "R-NUMA",
             "R-NUMA-SOFT", "SC soft/base", "RN soft/base"});
    const SweepResult &r = run.result;
    for (const std::string &app : workloadIds("app")) {
        t.addRow({app, Table::num(r.norm(app, "scoma")),
                  Table::num(r.norm(app, "scoma-soft")),
                  Table::num(r.norm(app, "rnuma")),
                  Table::num(r.norm(app, "rnuma-soft")),
                  Table::num(r.norm(app, "scoma-soft", "scoma")),
                  Table::num(r.norm(app, "rnuma-soft", "rnuma"))});
    }
    t.print(os);
    os << "\npaper shape: S-COMA is highly sensitive — execution "
          "time grows by up to\n~3x in more than half the "
          "applications under SOFT costs. R-NUMA grows by\nat most "
          "~25% in all but lu (~40%, whose replacements sit on the "
          "critical\npath due to load imbalance).\n";
    return 0;
}

//--------------------------------------------------------------------------
// Table 2: baseline operation costs (no workload cells: the check
// exercises the protocol engine directly against the paper's
// latencies).
//--------------------------------------------------------------------------

class HomeZero : public Placement
{
  public:
    NodeId homeOf(Addr) const override { return 0; }
};

class NullSink : public CoherenceSink
{
  public:
    bool invalidateNodeCopy(NodeId, Addr) override { return false; }
    void downgradeNodeCopy(NodeId, Addr) override {}
};

Sweep
buildTable2(double)
{
    return Sweep("table2");
}

int
renderTable2(const FigureRun &, std::ostream &os)
{
    Params p = Params::base();

    // Exercise an actual remote fetch through the protocol engine,
    // over the interconnect Params selects (the constant model in
    // the base configuration).
    std::unique_ptr<NetworkModel> net = makeNetwork(p);
    HomeZero place;
    NullSink sink;
    std::vector<std::unique_ptr<Memory>> mems;
    std::vector<Memory *> ptrs;
    for (std::size_t i = 0; i < p.numNodes; ++i) {
        mems.push_back(std::make_unique<Memory>(p.dramAccess,
                                                p.blockSize));
        ptrs.push_back(mems.back().get());
    }
    GlobalProtocol proto(p, *net, place, sink, ptrs);
    Tick measured_remote =
        proto.fetch(0, 1, 0x1000, ReqType::GetS).done +
        2 * p.busLatency; // request + fill bus transactions
    Tick measured_local =
        proto.fetch(1000000, 0, 0x2000, ReqType::GetS).done -
        1000000 + p.busLatency;

    Table t({"operation", "paper (cycles)", "measured/modeled"});
    t.addRow({"SRAM access", "8", std::to_string(p.sramAccess)});
    t.addRow({"DRAM access", "56", std::to_string(p.dramAccess)});
    t.addRow({"local cache fill", "69",
              std::to_string(measured_local)});
    t.addRow({"remote fetch", "376",
              std::to_string(measured_remote)});
    t.addRow({"soft trap", "2000", std::to_string(p.softTrap)});
    t.addRow({"TLB shootdown", "200",
              std::to_string(p.tlbShootdown)});
    t.addRow({"page alloc/replace/relocate (0 blocks)", "~3000",
              std::to_string(p.pageOpCost(0))});
    t.addRow({"page alloc/replace/relocate (128 blocks)", "~11500",
              std::to_string(p.pageOpCost(p.blocksPerPage()))});

    Params soft = Params::soft();
    t.addRow({"SOFT soft trap (10us)", "4000",
              std::to_string(soft.softTrap)});
    t.addRow({"SOFT TLB shootdown (5us)", "2000",
              std::to_string(soft.tlbShootdown)});
    t.print(os);

    bool ok = measured_remote == 376 && measured_local == 69;
    os << "\n" << (ok ? "PASS" : "MISMATCH")
       << ": composed latencies vs Table 2\n";
    return ok ? 0 : 1;
}

//--------------------------------------------------------------------------
// Table 4: block refetches and page replacements.
//--------------------------------------------------------------------------

Sweep
buildTable4(double scale)
{
    Sweep s("table4");
    Params p = Params::base();
    for (const std::string &app : workloadIds("app")) {
        for (const std::string &id : paperSystems)
            s.addApp(app, id, p, id, scale);
    }
    return s;
}

int
renderTable4(const FigureRun &run, std::ostream &os)
{
    Table t({"app", "CC-NUMA RW pages", "R-NUMA refetches vs CC",
             "R-NUMA replacements vs S-COMA"});
    for (const std::string &app : workloadIds("app")) {
        const RunStats &cc = run.result.at(app, "ccnuma").stats;
        const RunStats &sc = run.result.at(app, "scoma").stats;
        const RunStats &rn = run.result.at(app, "rnuma").stats;
        std::string rw = cc.refetches == 0
            ? "-" : Table::pct(cc.rwPageRefetchFraction());
        std::string refetch_ratio = cc.refetches == 0
            ? "-"
            : Table::pct(static_cast<double>(rn.refetches) /
                         static_cast<double>(cc.refetches));
        std::string repl_ratio = sc.scomaReplacements == 0
            ? "-"
            : Table::pct(static_cast<double>(rn.scomaReplacements) /
                         static_cast<double>(sc.scomaReplacements));
        t.addRow({app, rw, refetch_ratio, repl_ratio});
    }
    t.print(os);
    os << "\npaper: RW pages account for >80% of refetches in the "
          "full applications\n(barnes 97%, em3d 100%, fmm 99%, lu "
          "82%, moldyn 98%, ocean 96%), less in\nthe kernels "
          "(cholesky 28%, radix 15%) and raytrace (5%). R-NUMA "
          "cuts\nrefetches sharply except fmm (142%) and radix "
          "(125%), and virtually\neliminates replacements except "
          "cholesky (15%) and lu (70%).\n";
    return 0;
}

//--------------------------------------------------------------------------
// EQ 1-3: the worst-case competitive analysis plus the empirical
// adversary.
//--------------------------------------------------------------------------

Sweep
buildEq3(double)
{
    Sweep s("eq3");
    // The adversary stream is threshold-16 on a reduced problem (the
    // full threshold of 64 would need very long streams; the
    // structure is threshold-independent), so it does not scale.
    Params sp = Params::base();
    sp.relocationThreshold = 16;
    s.addComparison("adversary", sp, {"adversary", sp, 1.0},
                    paperSystems);
    return s;
}

int
renderEq3(const FigureRun &run, std::ostream &os)
{
    Params p = Params::base();
    AnalyticModel model(ModelParams::fromSystem(p, 64));

    os << "Analytic model (base system, 64 blocks moved per "
          "page op):\n"
       << "  C_refetch  = " << model.params().cRefetch << "\n"
       << "  C_allocate = " << model.params().cAllocate << "\n"
       << "  C_relocate = " << model.params().cRelocate << "\n\n";

    Table t({"threshold T", "EQ1: worst vs CC-NUMA",
             "EQ2: worst vs S-COMA"});
    for (double T : {4.0, 16.0, 19.0, 64.0, 256.0, 1024.0}) {
        t.addRow({Table::num(T, 0),
                  Table::num(model.worstVsCCNuma(T)),
                  Table::num(model.worstVsSComa(T))});
    }
    t.print(os);
    os << "\nEQ3 optimal threshold T* = "
       << Table::num(model.optimalThreshold())
       << ", bound at T* = 2 + C_rel/C_alloc = "
       << Table::num(model.boundAtOptimal())
       << " (paper: between 2 and 3)\n\n";

    os << "Empirical adversary (threshold 16, pages relocate then "
          "die):\n";
    const SweepResult &r = run.result;
    double o_cc = r.norm("adversary", "ccnuma") - 1.0;
    double o_sc = r.norm("adversary", "scoma") - 1.0;
    double o_rn = r.norm("adversary", "rnuma") - 1.0;
    Table e({"protocol", "normalized time", "overhead vs ideal"});
    e.addRow({"CC-NUMA", Table::num(o_cc + 1.0), Table::num(o_cc)});
    e.addRow({"S-COMA", Table::num(o_sc + 1.0), Table::num(o_sc)});
    e.addRow({"R-NUMA", Table::num(o_rn + 1.0), Table::num(o_rn)});
    e.print(os);

    double best = r.bestOfBase("adversary") - 1.0;
    double ratio = best > 0 ? o_rn / best : 0;
    os << "\nR-NUMA overhead vs best of CC/SC: " << Table::num(ratio)
       << "x (bounded by a small constant; the paper's bound at T* "
          "is "
       << Table::num(model.boundAtOptimal()) << "x)\n";
    return 0;
}

//--------------------------------------------------------------------------
// Ablation: the prior-owner (read-write refetch) directory state.
//--------------------------------------------------------------------------

Sweep
buildAblation(double scale)
{
    Sweep s("ablation");
    Params full = Params::base();
    Params ablated = full;
    ablated.priorOwnerState = false;
    for (const std::string &app : workloadIds("app")) {
        s.addComparison(app, full, {app, full, scale}, {});
        s.addApp(app, "full", full, "rnuma", scale);
        s.addApp(app, "ablated", ablated, "rnuma", scale);
    }
    return s;
}

int
renderAblation(const FigureRun &run, std::ostream &os)
{
    Table t({"app", "R-NUMA (full)", "R-NUMA (no prior state)",
             "slowdown", "relocations full/ablated"});
    const SweepResult &r = run.result;
    for (const std::string &app : workloadIds("app")) {
        const RunStats &a = r.at(app, "full").stats;
        const RunStats &b = r.at(app, "ablated").stats;
        t.addRow({app, Table::num(r.norm(app, "full")),
                  Table::num(r.norm(app, "ablated")),
                  Table::num(r.norm(app, "ablated", "full")),
                  std::to_string(a.relocations) + "/" +
                      std::to_string(b.relocations)});
    }
    t.print(os);
    os << "\nreading the result: read-reuse pages are still detected "
          "through the stale\nsharer bits (silent read-only "
          "evictions), so most applications are\nunaffected — but "
          "radix, whose reuse is pure write scatter through "
          "the\ntiny block cache, loses every relocation without "
          "the prior-owner state.\nThat is precisely why Section "
          "3.1 adds the extra directory state for\nread-write "
          "blocks.\n";
    return 0;
}

//--------------------------------------------------------------------------
// Micro: the four canonical access patterns under all protocols
// (not a paper figure; the library's analyzable sanity sweep).
//--------------------------------------------------------------------------

/** The micro figure's rows: registered micro workloads. */
const char *const microPatterns[] = {"private-loop", "hot-reuse",
                                     "producer-consumer", "rw-sharing"};

Sweep
buildMicro(double scale)
{
    Sweep s("micro");
    Params p = Params::base();
    for (const char *pat : microPatterns)
        s.addComparison(pat, p, {pat, p, scale}, paperSystems);
    return s;
}

int
renderMicro(const FigureRun &run, std::ostream &os)
{
    Table t({"pattern", "CC-NUMA", "S-COMA", "R-NUMA", "winner"});
    const SweepResult &r = run.result;
    for (const char *pat : microPatterns) {
        t.addRow({pat, Table::num(r.norm(pat, "ccnuma")),
                  Table::num(r.norm(pat, "scoma")),
                  Table::num(r.norm(pat, "rnuma")), winner(r, pat)});
    }
    t.print(os);
    os << "\nexpected shape: all protocols tie on private-loop; "
          "S-COMA and R-NUMA win\nhot-reuse (the reuse set lives in "
          "the page cache); CC-NUMA wins\nproducer-consumer (pure "
          "coherence traffic, S-COMA allocates for nothing);\n"
          "nobody helps rw-sharing (Section 1: migration and "
          "replication both fail).\n";
    return 0;
}

//--------------------------------------------------------------------------
// Policies: the registry-driven relocation-policy sweep (not a paper
// figure). Every registered protocol runs two microworkloads: the
// canonical in-cache reuse pattern (the pattern the relocation
// decision exists for) and an eviction-heavy pattern whose reuse set
// exceeds the page-cache frame budget, so relocated pages keep
// falling out and re-qualifying — the regime where the policies
// actually separate (at small scales the caches absorb hot-reuse and
// every policy ties). Both normalize to the infinite baseline. This
// is the harness that makes a new ProtocolSpec registration
// measurable with zero further wiring.
//--------------------------------------------------------------------------

Sweep
buildPolicies(double scale)
{
    Sweep s("policies");
    Params p = Params::base();
    std::vector<std::string> ids = protocolIds();
    // evict-storm's default page count derives from the frame
    // budget, not from the scale alone: the reuse set must overflow
    // the page cache at every scale (the small-scale tie was exactly
    // this cell degenerating into in-cache reuse).
    for (const char *pat : {"hot-reuse", "evict-storm"})
        s.addComparison(pat, p, {pat, p, scale}, ids);
    return s;
}

int
renderPolicies(const FigureRun &run, std::ostream &os)
{
    Table t({"pattern", "protocol", "policy", "normalized time",
             "relocations", "page-cache hits", "refetches"});
    for (const CellResult &c : run.result.cells) {
        if (c.config == "baseline")
            continue;
        t.addRow({c.app, label(c), policyOf(c),
                  Table::num(run.result.norm(c.app, c.config)),
                  std::to_string(c.stats.relocations),
                  std::to_string(c.stats.pageCacheHits),
                  std::to_string(c.stats.refetches)});
    }
    t.print(os);
    // The Section 3.2 ping-pong case, in the form that holds at every
    // measured scale: on evict-storm each suppression rule relocates,
    // and less than the static rule. Their order against each other
    // flips with scale, so it is not checked.
    std::vector<std::string> failed;
    const CellResult *stat = run.result.find("evict-storm", "rnuma");
    for (const char *id : {"rnuma-adaptive", "rnuma-hysteresis"}) {
        const CellResult *c = run.result.find("evict-storm", id);
        if (stat && c && (c->stats.relocations == 0 ||
                          c->stats.relocations >= stat->stats.relocations))
            failed.push_back("evict-storm: " + std::string(id) + " made " +
                             std::to_string(c->stats.relocations) +
                             " relocations, the static rule " +
                             std::to_string(stat->stats.relocations));
    }
    int status = reportMismatches(failed, os);
    os << "\nreading the result: on hot-reuse the hybrid systems "
          "relocate the reuse set\ninto the page cache and converge "
          "near the baseline; CC-NUMA keeps\nrefetching through the "
          "tiny block cache; S-COMA is already all page\ncache. On "
          "evict-storm the reuse set overflows the page cache, so "
          "the\nstatic rule ping-pongs relocations; hysteresis and "
          "the adaptive rule both\nsuppress re-entry and relocate "
          "less than it, in an order that depends on\nscale. "
          "Register a new ProtocolSpec (docs/PROTOCOLS.md) and it "
          "appears\nhere by name.\n";
    return status;
}

//--------------------------------------------------------------------------
// Scaling: grow the machine 8 -> 128 nodes across interconnect
// models x directory formats (not a paper figure; the redesign's
// capstone sweep). Every node's first CPU repeatedly reads the page
// set owned by its antipodal partner, so interconnect distance and
// directory population both grow with the node count — the regime
// where the paper's fixed-latency network and full-map directory
// stop being realistic. Cells pair the constant and mesh-2d network
// models with the full-map and limited-pointer-4 sharer-set formats
// under R-NUMA. The shift pattern has exactly one remote reader per
// page, so limited-pointer never overflows and the
// directory-format axis is purely a storage-cost axis: per-cell
// ticks must match across formats at every node count.
//--------------------------------------------------------------------------

Sweep
buildScaling(double scale)
{
    Sweep s("scaling");
    const SharerFormat formats[] = {SharerFormat::FullMap,
                                    SharerFormat::LimitedPointer};
    for (std::size_t nodes : {8, 16, 32, 64, 128}) {
        Params gen = Params::base();
        gen.numNodes = nodes;
        // The workload depends only on the machine geometry: one
        // generation (and one cache entry) per node count, shared
        // by every network x directory cell at that size.
        WorkloadInput wl("scaling-shift", gen, scale);
        for (const char *net : {"constant", "mesh-2d"}) {
            for (SharerFormat fmt : formats) {
                Params p = gen;
                p.networkModel = net;
                p.dirFormat = fmt;
                std::string config = "n" + std::to_string(nodes) +
                    "/" + net + "/" + p.directoryId();
                s.add({"shift", config, protocolSpec("rnuma"), p, wl});
            }
        }
    }
    return s;
}

int
renderScaling(const FigureRun &run, std::ostream &os)
{
    Table t({"nodes", "network", "directory", "ticks", "norm",
             "net msgs", "ni+link wait", "dir entries",
             "dir bits/entry"});
    // Cells arrive in build order: all of one node count, then the
    // next, each size leading with its first-network/full-map corner
    // — the within-size normalization baseline — and each (size,
    // network) leading with its full-map cell, the reference its
    // other directory formats are checked against.
    const std::vector<CellResult> &cells = run.result.cells;
    auto sizeOf = [](const CellResult &c) {
        return c.config.substr(0, c.config.find('/'));
    };
    auto bitsPerEntry = [](const RunStats &s) {
        return s.dirEntries ? static_cast<double>(s.dirBits) /
                                  static_cast<double>(s.dirEntries)
                            : 0.0;
    };
    std::string smallest = cells.empty() ? "" : sizeOf(cells.front());
    std::string largest = cells.empty() ? "" : sizeOf(cells.back());
    std::vector<std::string> failed;
    std::string curSize, refSizeNet;
    const CellResult *ref = nullptr;
    Tick base = 0;
    for (const CellResult &c : cells) {
        std::string size = sizeOf(c);
        if (size != curSize) {
            curSize = size;
            base = c.stats.ticks;
        }
        std::string sizeNet = c.config.substr(0, c.config.rfind('/'));
        if (sizeNet != refSizeNet) {
            ref = &c;
            refSizeNet = sizeNet;
        } else {
            // One reader per page: the format changes storage only.
            if (c.stats.ticks != ref->stats.ticks ||
                c.stats.dirEntries != ref->stats.dirEntries)
                failed.push_back(
                    c.config + ": " + std::to_string(c.stats.ticks) +
                    " ticks / " + std::to_string(c.stats.dirEntries) +
                    " dir entries, but " + ref->directory + " has " +
                    std::to_string(ref->stats.ticks) + " / " +
                    std::to_string(ref->stats.dirEntries));
            // The measurable O(sharers)-vs-O(nodes) claim: a
            // full-map entry carries 2N+owner bits, a
            // limited-pointer one 2(i*ceil(log2 N)+1)+owner. They
            // cross near N=16, so limited-pointer costs more on the
            // smallest machine and less on the largest.
            double bits = bitsPerEntry(c.stats);
            double refBits = bitsPerEntry(ref->stats);
            if ((size == smallest && bits < refBits) ||
                (size == largest && bits >= refBits))
                failed.push_back(c.config + ": " + Table::num(bits) +
                                 " bits per entry against " +
                                 ref->directory + "'s " +
                                 Table::num(refBits));
        }
        t.addRow({size, c.network, c.directory,
                  std::to_string(c.stats.ticks),
                  Table::num(normalizedTime(c.stats.ticks, base)),
                  std::to_string(c.stats.net.totalMessages()),
                  std::to_string(c.stats.niWait),
                  std::to_string(c.stats.dirEntries),
                  Table::num(bitsPerEntry(c.stats))});
    }
    t.print(os);
    int status = reportMismatches(failed, os);
    os << "\nreading the result: under the constant model ticks "
          "barely move with machine\nsize — every remote fetch "
          "costs the same flat wire — while the 2D mesh\ncharges "
          "dimension-ordered hops plus per-link queueing, so the "
          "antipodal\nshift slows as the diameter grows. Within a "
          "size the directory format\nnever changes ticks (one "
          "reader per page: limited-pointer stays exact);\nit only "
          "changes storage — full-map entries grow as 2N bits, "
          "limited-\npointer as 2(i*log2 N + 1): O(sharers), not "
          "O(nodes).\n";
    return status;
}

//--------------------------------------------------------------------------
// Serving: the Zipf-skew sweep over every registered protocol, on
// the paper's base machine and on a 64-node 2D mesh (not a paper
// figure; the Section 1 motivation made measurable). Skew theta is
// the axis: at theta=0.95 a few hot pages dominate — the regime
// where relocation/replication pays — while at theta=0.2 the load
// spreads nearly uniformly and behaves like capacity traffic. The
// Section-5-style claim under test: R-NUMA stays within a small
// envelope of the best base protocol at *every* skew, on both
// machines.
//--------------------------------------------------------------------------

/** The serving figure's skew axis (stable row-label spellings). */
const char *const servingThetas[] = {"0.2", "0.6", "0.95"};

Sweep
buildServing(double scale)
{
    Sweep s("serving");
    std::vector<std::string> ids = protocolIds();

    struct MachineAxis
    {
        const char *suffix; ///< row-label decoration ("" = base)
        Params gen;         ///< generation + run geometry
    };
    Params base = Params::base();
    Params mesh64 = Params::base();
    mesh64.numNodes = 64;
    mesh64.networkModel = "mesh-2d";
    const MachineAxis machines[] = {{"", base}, {"-m64", mesh64}};

    for (const MachineAxis &m : machines) {
        for (const char *theta : servingThetas) {
            std::string row = std::string("zipf-") + theta +
                              m.suffix;
            s.addComparison(row, m.gen,
                            {"zipf-serve", m.gen, scale, 1,
                             std::string("theta=") + theta},
                            ids);
        }
    }
    return s;
}

int
renderServing(const FigureRun &run, std::ostream &os)
{
    Table t({"machine", "theta", "protocol", "normalized time",
             "relocations", "page-cache hits", "refetches"});
    double worst_gap = 0;
    std::string worst_row;
    for (const CellResult &c : run.result.cells) {
        if (c.config == "baseline")
            continue;
        bool mesh = c.app.size() >= 4 &&
                    c.app.rfind("-m64") == c.app.size() - 4;
        std::string theta = c.app.substr(
            5, c.app.size() - 5 - (mesh ? 4 : 0));
        t.addRow({mesh ? "mesh-2d/64" : "base/8", theta, label(c),
                  Table::num(run.result.norm(c.app, c.config)),
                  std::to_string(c.stats.relocations),
                  std::to_string(c.stats.pageCacheHits),
                  std::to_string(c.stats.refetches)});
        if (c.protocol == "rnuma") {
            double gap = run.result.norm(c.app, "rnuma") /
                             run.result.bestOfBase(c.app) -
                         1.0;
            if (gap > worst_gap) {
                worst_gap = gap;
                worst_row = c.app;
            }
        }
    }
    t.print(os);
    os << "\nworst R-NUMA gap vs best of CC/SC across the skew "
          "sweep: ";
    if (worst_gap <= 0)
        os << "none (R-NUMA best everywhere)";
    else
        os << "+" << Table::pct(worst_gap) << " (" << worst_row
           << ")";
    os << "\nSection-5-style envelope: the paper bounds R-NUMA "
          "within +57% of the best\nbase protocol on the SPLASH-2 "
          "suite; serving skew should behave the same\nway — high "
          "theta rewards relocating the hot head, low theta "
          "degenerates\ntoward uniform capacity traffic, and the "
          "reactive split tracks both.\n";
    return 0;
}

//--------------------------------------------------------------------------
// Storm-cliff: the fmm relocation-storm regression guard (not a
// paper figure). On a pathologically small 4-frame page cache, fmm's
// reuse set relocates, evicts, re-qualifies and relocates again —
// the ~28x tick cliff first surfaced while tuning the hysteresis
// policy. Registering it as a figure keeps the cliff quantified on
// every run: the static policy's storm, and how far the hysteresis
// and adaptive policies climb out of it.
//--------------------------------------------------------------------------

Sweep
buildStormCliff(double scale)
{
    Sweep s("storm-cliff");
    Params base = Params::base();
    Params inf = base;
    inf.infiniteBlockCache = true;
    // The starved machine: 4 page-cache frames.
    Params f4 = base;
    f4.pageCacheSize = 4 * base.pageSize;
    // One input for every column, generated from the base machine
    // (fmm reads the block-cache geometry; the fig7 convention), so
    // each cell measures the identical trace.
    WorkloadInput wl("fmm", base, scale);
    s.add({"fmm", "baseline", protocolSpec("ccnuma"), inf, wl});
    s.add({"fmm", "rnuma", protocolSpec("rnuma"), base, wl});
    s.add({"fmm", "rnuma-f4", protocolSpec("rnuma"), f4, wl});
    s.add({"fmm", "rnuma-hysteresis-f4",
           protocolSpec("rnuma-hysteresis"), f4, wl});
    s.add({"fmm", "rnuma-adaptive-f4",
           protocolSpec("rnuma-adaptive"), f4, wl});
    return s;
}

int
renderStormCliff(const FigureRun &run, std::ostream &os)
{
    Table t({"config", "frames", "ticks", "normalized time",
             "relocations", "scoma evictions", "refetches"});
    Params base = Params::base();
    for (const CellResult &c : run.result.cells) {
        bool starved = c.config.size() >= 3 &&
                       c.config.rfind("-f4") == c.config.size() - 3;
        t.addRow({c.config,
                  std::to_string(starved ? 4
                                         : base.pageCacheFrames()),
                  std::to_string(c.stats.ticks),
                  Table::num(run.result.norm("fmm", c.config)),
                  std::to_string(c.stats.relocations),
                  std::to_string(c.stats.scomaReplacements),
                  std::to_string(c.stats.refetches)});
    }
    t.print(os);
    const RunStats &healthy = run.result.at("fmm", "rnuma").stats;
    const RunStats &starved = run.result.at("fmm", "rnuma-f4").stats;
    double cliff = healthy.ticks
        ? static_cast<double>(starved.ticks) /
              static_cast<double>(healthy.ticks)
        : 0.0;
    os << "\nstatic-policy cliff: the 4-frame machine runs "
       << Table::num(cliff) << "x the healthy machine's ticks ("
       << starved.relocations << " vs " << healthy.relocations
       << " relocations).\nThe relocate/evict/re-qualify storm is "
          "the worst case the hysteresis and\nadaptive policies "
          "exist for — their rows above show how far each "
          "climbs\nout of the cliff on the identical trace.\n";
    return 0;
}

} // namespace

const std::vector<FigureSpec> &
figureSpecs()
{
    static const std::vector<FigureSpec> specs = {
        {"fig5", "Figure 5: characterizing remote pages (refetch CDF)",
         "Falsafi & Wood, ISCA'97, Figure 5 (CC-NUMA, 32KB block "
         "cache)",
         &buildFig5, &renderFig5},
        {"fig6", "Figure 6: comparing CC-NUMA, S-COMA and R-NUMA",
         "Falsafi & Wood, ISCA'97, Figure 6", &buildFig6,
         &renderFig6},
        {"fig7",
         "Figure 7: cache-size sensitivity of CC-NUMA and R-NUMA",
         "Falsafi & Wood, ISCA'97, Figure 7", &buildFig7,
         &renderFig7},
        {"fig8", "Figure 8: R-NUMA sensitivity to relocation threshold",
         "Falsafi & Wood, ISCA'97, Figure 8 (normalized to T=64)",
         &buildFig8, &renderFig8},
        {"fig9", "Figure 9: page-fault / TLB overhead sensitivity",
         "Falsafi & Wood, ISCA'97, Figure 9", &buildFig9,
         &renderFig9},
        {"table2", "Table 2: baseline operation costs",
         "Falsafi & Wood, ISCA'97, Table 2", &buildTable2,
         &renderTable2},
        {"table4", "Table 4: block refetches and page replacements",
         "Falsafi & Wood, ISCA'97, Table 4", &buildTable4,
         &renderTable4},
        {"eq3", "EQ 1-3: worst-case competitive analysis",
         "Falsafi & Wood, ISCA'97, Section 3.2", &buildEq3,
         &renderEq3},
        {"ablation",
         "Ablation: the prior-owner (read-write refetch) state",
         "Falsafi & Wood, ISCA'97, Section 3.1 (design-choice "
         "ablation)",
         &buildAblation, &renderAblation},
        {"micro",
         "Micro: canonical access patterns under every protocol",
         "Falsafi & Wood, ISCA'97, Sections 1-3 (motivating "
         "patterns)",
         &buildMicro, &renderMicro},
        {"policies",
         "Policies: every registered protocol on the reuse "
         "microworkload",
         "Falsafi & Wood, ISCA'97, Section 3 (the RAD/policy "
         "factoring, generalized)",
         &buildPolicies, &renderPolicies},
        {"scaling",
         "Scaling: node count x interconnect model x directory "
         "format",
         "Falsafi & Wood, ISCA'97, Section 2 (the 8-node machine, "
         "scaled out)",
         &buildScaling, &renderScaling},
        {"serving",
         "Serving: Zipf skew x every protocol, base machine and "
         "64-node mesh",
         "Falsafi & Wood, ISCA'97, Section 1 (the commercial-"
         "serving motivation)",
         &buildServing, &renderServing},
        {"storm-cliff",
         "Storm-cliff: the fmm 4-frame relocation-storm regression "
         "guard",
         "Falsafi & Wood, ISCA'97, Section 3.2 (the ping-pong worst "
         "case, embodied)",
         &buildStormCliff, &renderStormCliff},
    };
    return specs;
}

const FigureSpec *
findFigure(const std::string &name)
{
    for (const FigureSpec &s : figureSpecs())
        if (name == s.name)
            return &s;
    return nullptr;
}

FigureRun
runFigure(const FigureSpec &spec, double scale, SweepRunner &runner,
          bool verify)
{
    FigureRun run;
    run.name = spec.name;
    run.title = spec.title;
    run.paperRef = spec.paperRef;
    run.scale = scale;

    run.jobs = runner.jobs();
    Sweep sweep = spec.build(scale);
    auto t0 = std::chrono::steady_clock::now();
    run.result = runner.run(sweep);
    auto t1 = std::chrono::steady_clock::now();
    run.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    // A serial run *is* the reference; re-running it to compare
    // against itself would double the cost to prove nothing.
    if (verify && run.jobs > 1)
        verifySerialIdentical(sweep, run.result);
    return run;
}

int
renderFigure(const FigureSpec &spec, FigureRun &run,
             std::ostream &os)
{
    run.status = spec.render(run, os);
    return run.status;
}

} // namespace rnuma::driver
