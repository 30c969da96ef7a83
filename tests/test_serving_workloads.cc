/**
 * @file
 * Tests for the workload registry and the commercial-serving
 * generators (zipf-serve, phase-shift, database-scan): Zipf skew
 * actually skews the page popularity, phase rotation has the
 * advertised window geometry, streams are seed-deterministic, and
 * the option parser rejects garbage loudly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "workload/apps/apps.hh"
#include "workload/registry.hh"
#include "workload/serving.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

/** Count pool-read references per page (the think-6 reads are the
 * zipf-serve pool scans; session and update traffic use other think
 * times). */
std::map<Addr, std::size_t>
poolReadCounts(const Workload &wl, std::size_t page_size)
{
    std::map<Addr, std::size_t> counts;
    for (CpuId c = 0; c < wl.numCpus(); ++c) {
        for (std::size_t i = 0; i < wl.size(c); ++i) {
            const Ref &r = wl.at(c, i);
            if (r.kind == RefKind::Mem && !r.write && r.think == 6)
                ++counts[r.addr / page_size];
        }
    }
    return counts;
}

/** Sorted per-page counts, most popular first. */
std::vector<std::size_t>
sortedCounts(const std::map<Addr, std::size_t> &counts)
{
    std::vector<std::size_t> v;
    for (const auto &kv : counts)
        v.push_back(kv.second);
    std::sort(v.rbegin(), v.rend());
    return v;
}

} // namespace

//--------------------------------------------------------------------------
// Registry
//--------------------------------------------------------------------------

TEST(WorkloadRegistry, BuiltinsCoverAllThreeCategories)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    // 10 apps + 7 micros + 3 serving.
    EXPECT_GE(reg.size(), 20u);
    std::size_t apps = 0, micros = 0, serving = 0;
    for (const WorkloadSpec *s : reg.all()) {
        EXPECT_TRUE(s->valid());
        if (s->category == "app")
            ++apps;
        else if (s->category == "micro")
            ++micros;
        else if (s->category == "serving")
            ++serving;
    }
    EXPECT_EQ(apps, 10u);
    EXPECT_GE(micros, 7u);
    EXPECT_GE(serving, 3u);
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    Params p = test::smallParams();
    EXPECT_THROW(makeWorkload("definitely-not-registered", p, 0.1),
                 std::runtime_error);
}

TEST(WorkloadRegistry, MakeWorkloadMatchesTheGeneratorBitForBit)
{
    Params p = test::smallParams();
    auto direct = makeRadix(p, 0.1, 7);
    auto vec = makeWorkload("radix", p, 0.1, 7);
    ASSERT_EQ(vec->numCpus(), direct->numCpus());
    for (CpuId c = 0; c < vec->numCpus(); ++c) {
        ASSERT_EQ(vec->size(c), direct->size(c));
        for (std::size_t i = 0; i < vec->size(c); ++i) {
            const Ref &a = direct->at(c, i);
            const Ref &b = vec->at(c, i);
            ASSERT_EQ(a.kind, b.kind);
            ASSERT_EQ(a.addr, b.addr);
            ASSERT_EQ(a.write, b.write);
            ASSERT_EQ(a.think, b.think);
        }
    }
}

//--------------------------------------------------------------------------
// Options
//--------------------------------------------------------------------------

TEST(WorkloadOptions, TypedGettersAndDefaults)
{
    auto o = WorkloadOptions::parse("pages=32,theta=1.25,tag=hot");
    EXPECT_EQ(o.getSize("pages", 7), 32u);
    EXPECT_DOUBLE_EQ(o.getDouble("theta", 0.0), 1.25);
    EXPECT_EQ(o.getString("tag", "cold"), "hot");
    EXPECT_EQ(o.getSize("absent", 9), 9u);
    o.finish("test");
}

TEST(WorkloadOptions, UnknownKeyIsFatalAtFinish)
{
    auto o = WorkloadOptions::parse("pages=32,tpyo=1");
    EXPECT_EQ(o.getSize("pages", 7), 32u);
    EXPECT_THROW(o.finish("test"), std::runtime_error);
}

TEST(WorkloadOptions, MalformedInputIsFatal)
{
    EXPECT_THROW(WorkloadOptions::parse("pages"), std::runtime_error);
    EXPECT_THROW(WorkloadOptions::parse("=3"), std::runtime_error);
    auto o = WorkloadOptions::parse("pages=notanumber");
    EXPECT_THROW(o.getSize("pages", 1), std::runtime_error);
    // Each failure is fatal and names the offending key=value.
    auto expectFatal = [](const std::string &kv, bool size) {
        auto bad = WorkloadOptions::parse(kv);
        std::string key = kv.substr(0, kv.find('='));
        try {
            if (size)
                bad.getSize(key, 1);
            else
                bad.getDouble(key, 0.5);
            ADD_FAILURE() << kv << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(kv), std::string::npos)
                << e.what();
        }
    };
    // Sizes are plain digit strings that fit: no sign (strtoull
    // would wrap "-1" to 2^64 - 1), no whitespace, no saturation.
    for (const char *kv : {"pages=-1", "pages=+7", "pages= 5",
                           "pages=99999999999999999999"})
        expectFatal(kv, true);
    for (const char *kv : {"theta=nan", "theta=inf", "theta=-inf",
                           "write=nan"})
        expectFatal(kv, false);
}

TEST(WorkloadOptions, UnknownOrRepeatedGeneratorOptionIsFatal)
{
    // Each error names its key. A repeated key is not blamed as one
    // the generator does not take, and a micro runs its figures'
    // sizes only, so even an option its typed make* function has a
    // parameter for is unknown.
    Params p = test::smallParams();
    const std::pair<const char *, const char *> unknown[] = {
        {"zipf-serve", "thtea"},    {"private-loop", "iters"},
        {"hot-reuse", "pages"},     {"evict-storm", "sweeps"},
        {"producer-consumer", "rounds"},
        {"rw-sharing", "rounds"},   {"adversary", "touches"},
        {"scaling-shift", "pages"},
    };
    auto expectFatal = [&](const std::string &workload,
                           const std::string &options,
                           const std::string &message) {
        try {
            makeWorkload(workload, p, 1, 1, options);
            ADD_FAILURE() << workload << " accepted " << options;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos)
                << e.what();
        }
    };
    for (const auto &[workload, key] : unknown) {
        expectFatal(workload, std::string(key) + "=4",
                    std::string("workload '") + workload +
                        "' does not take option '" + key + "'");
    }
    expectFatal("zipf-serve", "pages=32,pages=48",
                "workload option 'pages' is given more than once");
    // Every micro has its row.
    std::size_t micros = 0;
    for (const auto &row : unknown)
        micros += workloadSpec(row.first).category == "micro";
    EXPECT_EQ(micros, workloadIds("micro").size());
}

TEST(WorkloadOptions, OutOfRangeGeneratorOptionIsFatal)
{
    // Each value parses but is outside the generator's domain: a
    // user error that names the option, not a simulator panic (or a
    // bad_alloc / division by zero further down).
    Params p = test::smallParams(); // 4 page-cache frames
    const std::pair<const char *, const char *> cases[] = {
        {"zipf-serve", "write=2"},        {"zipf-serve", "theta=-1"},
        {"zipf-serve", "pages=0"},        {"zipf-serve", "requests=0"},
        {"phase-shift", "phases=0"},      {"database-scan", "hot=500"},
        {"database-scan", "hot=0"},       {"database-scan", "pool=0"},
        // Past maxPages: a named error, not a bad_alloc.
        {"zipf-serve", "pages=1000000000000"},
        {"phase-shift", "pages=1000000000000"},
        {"database-scan", "pool=1000000000000"},
        // Past maxStreamCount: named before the stream is built.
        {"zipf-serve", "requests=1000000000000"},
        {"phase-shift", "phases=1000000000000"},
        {"phase-shift", "sweeps=1000000000000"},
        {"database-scan", "transactions=1000000000000"},
        {"database-scan", "rows=1000000000000"},
    };
    for (const auto &[workload, kv] : cases) {
        try {
            makeWorkload(workload, p, 0.1, 1, kv);
            ADD_FAILURE() << workload << " accepted " << kv;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(kv), std::string::npos)
                << workload << ": " << e.what();
        }
    }
    // The stream bound is the one named constant, not a per-option
    // limit.
    EXPECT_THROW(makeWorkload("zipf-serve", p, 0.1, 1,
                              "requests=" +
                                  std::to_string(maxStreamCount + 1)),
                 std::runtime_error);
}

//--------------------------------------------------------------------------
// zipf-serve
//--------------------------------------------------------------------------

TEST(ZipfServe, HighSkewConcentratesOnTheHead)
{
    Params p = test::smallParams();
    auto wl = makeZipfServe(p, 1.0, 42,
                            "pages=32,theta=1.2,requests=2000");
    auto counts = sortedCounts(poolReadCounts(*wl, p.pageSize));
    ASSERT_GE(counts.size(), 10u);
    // Zipf(1.2): rank 1 carries ~16x rank 10's weight. Leave wide
    // sampling slack — 4x is far outside what a uniform draw does.
    EXPECT_GE(counts[0], 4 * counts[9]);
}

TEST(ZipfServe, ZeroSkewIsUniform)
{
    Params p = test::smallParams();
    auto wl = makeZipfServe(p, 1.0, 42,
                            "pages=32,theta=0,requests=2000");
    auto counts = sortedCounts(poolReadCounts(*wl, p.pageSize));
    ASSERT_EQ(counts.size(), 32u);
    // 8000 draws over 32 pages: every page lands near 250; max/min
    // stays well under 2 at this sample size.
    EXPECT_LE(counts.front(), 2 * counts.back());
}

TEST(ZipfServe, WriteFractionZeroMeansPoolIsReadOnly)
{
    Params p = test::smallParams();
    auto wl = makeZipfServe(p, 1.0, 1,
                            "pages=16,write=0,requests=100");
    for (CpuId c = 0; c < wl->numCpus(); ++c) {
        for (std::size_t i = 0; i < wl->size(c); ++i) {
            const Ref &r = wl->at(c, i);
            // Think-4 writes are the in-place pool updates; think-2
            // writes are private session state and always present.
            if (r.kind == RefKind::Mem && r.write) {
                EXPECT_EQ(r.think, 2u);
            }
        }
    }
}

//--------------------------------------------------------------------------
// phase-shift
//--------------------------------------------------------------------------

TEST(PhaseShift, WindowRotatesByStepEachPhase)
{
    Params p = test::smallParams(); // 4 page-cache frames
    const std::size_t pages = 12, phases = 4;
    auto wl = makePhaseShift(p, 1.0, 5,
                             "pages=12,phases=4,sweeps=1");
    // Split CPU 0's stream into barrier-delimited segments; segment 0
    // is placement, segments 1..phases are the phases.
    std::vector<std::set<Addr>> segs(1);
    for (std::size_t i = 0; i < wl->size(0); ++i) {
        const Ref &r = wl->at(0, i);
        if (r.kind == RefKind::Barrier)
            segs.emplace_back();
        else if (r.kind == RefKind::Mem)
            segs.back().insert(r.addr / p.pageSize);
    }
    ASSERT_EQ(segs.size(), phases + 2); // placement + phases + tail
    const std::size_t window = std::min(pages, p.pageCacheFrames());
    std::set<Addr> all;
    for (std::size_t ph = 0; ph < phases; ++ph) {
        EXPECT_EQ(segs[ph + 1].size(), window) << "phase " << ph;
        all.insert(segs[ph + 1].begin(), segs[ph + 1].end());
    }
    // step = pages/phases = 3, window = 4: consecutive phases overlap
    // in exactly window - step = 1 page, and the rotation covers the
    // whole pool.
    for (std::size_t ph = 0; ph + 1 < phases; ++ph) {
        std::vector<Addr> inter;
        std::set_intersection(segs[ph + 1].begin(),
                              segs[ph + 1].end(),
                              segs[ph + 2].begin(),
                              segs[ph + 2].end(),
                              std::back_inserter(inter));
        EXPECT_EQ(inter.size(), 1u) << "phases " << ph << "/"
                                    << ph + 1;
    }
    EXPECT_EQ(all.size(), pages);
}

TEST(PhaseShift, DefaultPoolOverflowsThePageCache)
{
    Params p = test::smallParams();
    auto wl = makePhaseShift(p, 0.5, 1);
    std::set<Addr> pages;
    for (CpuId c = 0; c < wl->numCpus(); ++c)
        for (std::size_t i = 0; i < wl->size(c); ++i) {
            const Ref &r = wl->at(c, i);
            if (r.kind == RefKind::Mem ||
                r.kind == RefKind::InitTouch)
                pages.insert(r.addr / p.pageSize);
        }
    EXPECT_GT(pages.size(), p.pageCacheFrames());
}

//--------------------------------------------------------------------------
// determinism
//--------------------------------------------------------------------------

TEST(ServingWorkloads, SameSeedSameStreamDifferentSeedDifferent)
{
    Params p = test::smallParams();
    for (const char *id :
         {"zipf-serve", "phase-shift", "database-scan"}) {
        auto va = makeWorkload(id, p, 0.1, 11);
        auto vb = makeWorkload(id, p, 0.1, 11);
        auto vc = makeWorkload(id, p, 0.1, 12);
        ASSERT_EQ(va->numCpus(), vb->numCpus()) << id;
        bool differs_from_c =
            va->totalRefs() != vc->totalRefs();
        for (CpuId cpu = 0; cpu < va->numCpus(); ++cpu) {
            ASSERT_EQ(va->size(cpu), vb->size(cpu)) << id;
            for (std::size_t i = 0; i < va->size(cpu); ++i) {
                const Ref &ra = va->at(cpu, i);
                const Ref &rb = vb->at(cpu, i);
                ASSERT_EQ(ra.kind, rb.kind) << id;
                ASSERT_EQ(ra.addr, rb.addr) << id;
                ASSERT_EQ(ra.write, rb.write) << id;
                ASSERT_EQ(ra.think, rb.think) << id;
                if (!differs_from_c && i < vc->size(cpu)) {
                    const Ref &rc = vc->at(cpu, i);
                    if (ra.addr != rc.addr ||
                        ra.write != rc.write)
                        differs_from_c = true;
                }
            }
        }
        EXPECT_TRUE(differs_from_c)
            << id << ": seeds 11 and 12 produced identical streams";
    }
}

TEST(ServingWorkloads, AllPassTheFinishAudit)
{
    // StreamBuilder::finish() fatals on any reference outside the
    // allocated range, so simply building each generator (at two
    // scales) is the audit; also assert the limit is recorded.
    Params p = test::smallParams();
    for (const char *id :
         {"zipf-serve", "phase-shift", "database-scan"}) {
        for (double scale : {0.1, 1.0}) {
            auto vec = makeWorkload(id, p, scale, 1);
            EXPECT_GT(vec->addrLimit(), 0u) << id;
            EXPECT_GT(vec->memRefCount(), 0u) << id;
        }
    }
}

TEST(ServingWorkloads, DatabaseScanRegistryMatchesHistoricalStream)
{
    // Seed 0xdb + default options must reproduce the stream the
    // database_scan example has always run (the generator moved from
    // the example into the registry).
    Params p = Params::base();
    auto vec = makeWorkload("database-scan", p, 1.0, 0xdb,
                            "transactions=8");
    EXPECT_EQ(vec->name(), "database-scan");
    EXPECT_GT(vec->memRefCount(), 0u);
}

} // namespace rnuma
