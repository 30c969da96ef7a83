/**
 * @file
 * Geometry audit of the workload generators (ROADMAP item surfaced
 * by the PR-1 fmm anti-aliasing fix): the Table 3 generators bake in
 * layout constants — moldyn's 64-byte particle record, fmm's
 * 128-byte multipole expansion, cholesky's 96-block panel sample,
 * radix's one-page-per-CPU stripes — that historically assumed the
 * paper machine's block/page geometry and silently read or wrote
 * past their allocations on other configurations.
 *
 * StreamBuilder::finish() now audits every generated address against
 * the allocator's high-water mark, so any such assumption fails at
 * generation time. These tests pin the smallest viable
 * configurations of each failure class: blocks wider than the record
 * types (moldyn, fmm, cholesky), blocks narrower than a radix key,
 * and machines wider than the scaled arrays (radix's page stripes).
 * em3d is audited clean — its record size *is* the block size — and
 * rides along as the control.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/params.hh"
#include "sim/runner.hh"
#include "workload/registry.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

/** Blocks wider than moldyn's particle and wider than half of
 * fmm's cell: the "record spans two blocks" assumption breaks. */
Params
bigBlockParams()
{
    Params p;
    p.numNodes = 2;
    p.cpusPerNode = 2;
    p.blockSize = 256;
    p.pageSize = 1024;
    p.l1Size = 1024;
    p.blockCacheSize = 2048;
    p.rnumaBlockCacheSize = 256;
    p.pageCacheSize = 4 * 1024;
    p.relocationThreshold = 4;
    p.validate();
    return p;
}

/** Blocks narrower than a 4-byte radix key. */
Params
tinyBlockParams()
{
    Params p;
    p.numNodes = 2;
    p.cpusPerNode = 2;
    p.blockSize = 4;
    p.pageSize = 512;
    p.l1Size = 512;
    p.blockCacheSize = 512;
    p.rnumaBlockCacheSize = 64;
    p.pageCacheSize = 4 * 512;
    p.relocationThreshold = 4;
    p.validate();
    return p;
}

/** More CPUs than a hundredth-scale input has array pages. */
Params
wideMachineParams()
{
    Params p;
    p.numNodes = 8;
    p.cpusPerNode = 2;
    p.blockSize = 32;
    p.pageSize = 512;
    p.l1Size = 512;
    p.blockCacheSize = 1024;
    p.rnumaBlockCacheSize = 64;
    p.pageCacheSize = 4 * 512;
    p.relocationThreshold = 4;
    p.validate();
    return p;
}

/**
 * Generate @p app at the smallest supported scale and check the
 * recorded address-space bound; then actually run it under every
 * protocol, because in-bounds generation can still trip machine
 * invariants (that is how the original fmm pool hang surfaced).
 */
void
generateAndRunEverywhere(const char *app, const Params &p)
{
    SCOPED_TRACE(app);
    std::unique_ptr<VectorWorkload> wl =
        test::makeVectorWorkload(app, p, 0.01);
    ASSERT_TRUE(wl);
    EXPECT_GE(wl->memRefCount(), 1u);
    ASSERT_GT(wl->addrLimit(), 0u);
    for (CpuId c = 0; c < wl->numCpus(); ++c) {
        for (std::size_t i = 0; i < wl->size(c); ++i) {
            const Ref &r = wl->at(c, i);
            if (r.kind == RefKind::Mem ||
                r.kind == RefKind::InitTouch) {
                ASSERT_LT(r.addr, wl->addrLimit())
                    << "cpu " << c << " entry " << i;
            }
        }
    }
    for (const char *proto : {"ccnuma", "scoma", "rnuma"}) {
        RunStats s = runProtocol(p, proto, *wl);
        EXPECT_GT(s.refs, 0u) << proto;
        EXPECT_GT(s.ticks, 0u) << proto;
    }
}

const char *const auditedApps[] = {"em3d", "radix", "moldyn", "fmm",
                                   "cholesky"};

} // namespace

TEST(GeneratorGeometry, SurvivesBlocksWiderThanRecords)
{
    for (const char *app : auditedApps)
        generateAndRunEverywhere(app, bigBlockParams());
}

TEST(GeneratorGeometry, SurvivesBlocksNarrowerThanAKey)
{
    for (const char *app : auditedApps)
        generateAndRunEverywhere(app, tinyBlockParams());
}

TEST(GeneratorGeometry, SurvivesMachinesWiderThanTheInput)
{
    for (const char *app : auditedApps)
        generateAndRunEverywhere(app, wideMachineParams());
}

TEST(GeneratorGeometry, SmallMachineAtHundredthScaleStaysInBounds)
{
    for (const char *app : auditedApps)
        generateAndRunEverywhere(app, test::smallParams());
}

TEST(GeneratorGeometry, BaseMachineStreamsCarryTheAuditBound)
{
    // The paper machine itself: every generator records a bound and
    // honors it (finish() would have panicked otherwise).
    Params p = Params::base();
    for (const char *app : auditedApps) {
        std::unique_ptr<VectorWorkload> wl =
            test::makeVectorWorkload(app, p, 0.02);
        ASSERT_TRUE(wl) << app;
        ASSERT_GT(wl->addrLimit(), 0u) << app;
        EXPECT_GE(wl->memRefCount(), 1u) << app;
    }
}

} // namespace rnuma
