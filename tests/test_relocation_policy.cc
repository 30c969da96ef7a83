/**
 * @file
 * Unit tests for the pluggable relocation-policy API (Section 3.1
 * generalized): the StaticThresholdPolicy's exact-threshold firing
 * (including bit-identity against an inline oracle replicating the
 * pre-registry ReactivePolicy counter semantics), the
 * HysteresisPolicy's ping-pong suppression, the
 * AdaptiveThresholdPolicy's per-page threshold convergence, and the
 * residency-feedback family (utility / online-model / ewma).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "common/params.hh"
#include "common/rng.hh"
#include "core/analytic_model.hh"
#include "core/relocation_policy.hh"
#include "proto/registry.hh"

namespace rnuma
{

TEST(StaticThreshold, FiresExactlyAtThreshold)
{
    StaticThresholdPolicy rp(4);
    EXPECT_FALSE(rp.onRefetch(1)); // 1
    EXPECT_FALSE(rp.onRefetch(1)); // 2
    EXPECT_FALSE(rp.onRefetch(1)); // 3
    EXPECT_TRUE(rp.onRefetch(1));  // 4 -> interrupt
}

TEST(StaticThreshold, CounterResetsAfterFiring)
{
    StaticThresholdPolicy rp(2);
    rp.onRefetch(1);
    EXPECT_TRUE(rp.onRefetch(1));
    EXPECT_EQ(rp.count(1), 0u);
    EXPECT_FALSE(rp.onRefetch(1)); // counting starts over
}

TEST(StaticThreshold, PagesAreIndependent)
{
    StaticThresholdPolicy rp(3);
    rp.onRefetch(1);
    rp.onRefetch(1);
    rp.onRefetch(2);
    EXPECT_EQ(rp.count(1), 2u);
    EXPECT_EQ(rp.count(2), 1u);
    EXPECT_EQ(rp.trackedPages(), 2u);
}

TEST(StaticThreshold, LifecycleNotificationsClearTheCounter)
{
    StaticThresholdPolicy rp(10);
    rp.onRefetch(5);
    rp.onRefetch(5);
    rp.reset(5);
    EXPECT_EQ(rp.count(5), 0u);
    EXPECT_EQ(rp.trackedPages(), 0u);
    rp.onRefetch(6);
    rp.onRelocated(6);
    EXPECT_EQ(rp.count(6), 0u);
    rp.onRefetch(7);
    rp.onEvicted(7, 0);
    EXPECT_EQ(rp.count(7), 0u);
}

TEST(StaticThreshold, ThresholdOneFiresImmediately)
{
    StaticThresholdPolicy rp(1);
    EXPECT_TRUE(rp.onRefetch(9));
}

/** Parameterized: the policy fires after exactly T refetches. */
class ThresholdSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ThresholdSweep, FiresAfterExactlyT)
{
    std::size_t T = GetParam();
    StaticThresholdPolicy rp(T);
    for (std::size_t i = 1; i < T; ++i)
        ASSERT_FALSE(rp.onRefetch(3)) << "fired early at " << i;
    EXPECT_TRUE(rp.onRefetch(3));
}

INSTANTIATE_TEST_SUITE_P(PaperThresholds, ThresholdSweep,
                         ::testing::Values(1, 16, 64, 256, 1024));

namespace
{

/**
 * The pre-registry ReactivePolicy, inlined verbatim as the firing
 * oracle: recordRefetch increments and fires (erasing) at the
 * threshold; reset erases. RNumaRad used to call reset() both after
 * a relocation and on page-cache eviction, which the new API splits
 * into onRelocated/onEvicted.
 */
class Oracle
{
  public:
    explicit Oracle(std::size_t threshold) : thresh(threshold) {}

    bool
    recordRefetch(Addr page)
    {
        std::uint64_t &c = counts[page];
        if (++c >= thresh) {
            counts.erase(page);
            return true;
        }
        return false;
    }

    void reset(Addr page) { counts.erase(page); }

  private:
    std::size_t thresh;
    std::unordered_map<Addr, std::uint64_t> counts;
};

} // namespace

TEST(StaticThreshold, BitIdenticalToPreRefactorOracle)
{
    // Drive both implementations with a randomized refetch /
    // relocate / evict stream over a small page set; every firing
    // decision must agree, or R-NUMA's simulated ticks would drift.
    Rng rng(0x5eedc0de);
    StaticThresholdPolicy rp(4);
    Oracle oracle(4);
    for (int step = 0; step < 50000; ++step) {
        Addr page = rng.below(16);
        std::uint64_t action = rng.below(100);
        if (action < 85) {
            ASSERT_EQ(rp.onRefetch(page),
                      oracle.recordRefetch(page))
                << "step " << step;
        } else if (action < 92) {
            rp.onRelocated(page);
            oracle.reset(page);
        } else {
            rp.onEvicted(page, 0);
            oracle.reset(page);
        }
    }
    for (Addr page = 0; page < 16; ++page)
        ASSERT_EQ(rp.onRefetch(page), oracle.recordRefetch(page));
}

namespace
{

/** 64-bit FNV-1a, folded one little-endian byte at a time. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * Drive @p rp with a seeded refetch / relocate / evict / reset
 * stream over 64 pages and digest every decision and the observable
 * state after each step: onRefetch's result, the page's pending
 * count and trackedPages(). A firing usually relocates (the machine's
 * order), but relocations, evictions with residentHits in [0, 64) and
 * resets also arrive free-standing, so pages carry adapted thresholds
 * alongside pending counts.
 */
std::uint64_t
decisionDigest(RelocationPolicy &rp)
{
    Rng rng(0xd16e57);
    Fnv1a d;
    for (int step = 0; step < 100000; ++step) {
        Addr page = rng.below(64);
        std::uint64_t action = rng.below(1000);
        if (action < 970) {
            bool fired = rp.onRefetch(page);
            d.add(fired);
            if (fired && rng.below(4) != 0)
                rp.onRelocated(page);
        } else if (action < 980) {
            rp.onRelocated(page);
        } else if (action < 993) {
            // Skewed toward short residencies (mean ~16 hits), so the
            // break-even rules see both outcomes.
            rp.onEvicted(page, rng.below(1 + rng.below(64)));
        } else {
            rp.reset(page);
        }
        d.add(rp.count(page));
        d.add(rp.trackedPages());
    }
    return d.h;
}

} // namespace

TEST(Policies, EveryShippedPolicyMatchesItsPinnedDecisionDigest)
{
    // Recorded against the per-policy implementations that predate
    // the shared ThresholdPolicy core; any change to a shipped rule's
    // decisions, counts or tracked state moves its digest. A new
    // registered policy needs a digest here too.
    const std::map<std::string, std::uint64_t> pinned = {
        {"rnuma", 0x404ea7f5e210fcc9ull},
        {"rnuma-hysteresis", 0xfce95fb683362bf2ull},
        {"rnuma-adaptive", 0x1dfd63a87c70c5adull},
        {"rnuma-model", 0x9e07d66a8b6144f3ull},
        {"rnuma-utility", 0x3238a9ec485d8829ull},
        {"rnuma-online-model", 0xdc4126bcfcb9a511ull},
        {"rnuma-ewma", 0x1624a46fd9242cbcull},
    };
    Params p = Params::base();
    std::size_t withPolicy = 0;
    for (const ProtocolSpec *s : ProtocolRegistry::global().all()) {
        if (!s->makePolicy)
            continue;
        withPolicy++;
        auto it = pinned.find(s->id);
        ASSERT_NE(it, pinned.end()) << s->id << " has no pinned digest";
        auto rp = s->makePolicy(p);
        EXPECT_EQ(decisionDigest(*rp), it->second)
            << s->id << " (" << rp->describe() << ")";
    }
    EXPECT_EQ(withPolicy, pinned.size());
}

TEST(Hysteresis, FirstRelocationUsesTheBaseThreshold)
{
    HysteresisPolicy hp(2, 6);
    EXPECT_FALSE(hp.onRefetch(1));
    EXPECT_TRUE(hp.onRefetch(1));
    hp.onRelocated(1);
    EXPECT_EQ(hp.thresholdOf(1), 2u); // not evicted: base threshold
}

TEST(Hysteresis, RevertedPagesDoNotPingPong)
{
    HysteresisPolicy hp(2, 6);
    // Relocate, then the page cache evicts the page.
    hp.onRefetch(1);
    EXPECT_TRUE(hp.onRefetch(1));
    hp.onRelocated(1);
    hp.onEvicted(1, 0);
    EXPECT_EQ(hp.thresholdOf(1), 6u);
    // The base threshold no longer fires...
    EXPECT_FALSE(hp.onRefetch(1));
    EXPECT_FALSE(hp.onRefetch(1));
    EXPECT_FALSE(hp.onRefetch(1));
    EXPECT_FALSE(hp.onRefetch(1));
    EXPECT_FALSE(hp.onRefetch(1));
    // ...only the raised one does.
    EXPECT_TRUE(hp.onRefetch(1));
    // Other pages keep the cheap first relocation.
    EXPECT_FALSE(hp.onRefetch(2));
    EXPECT_TRUE(hp.onRefetch(2));
}

TEST(Policies, TrackedPagesCountsAllLiveState)
{
    // A reverted mark / adapted threshold is live per-page state
    // even with no pending refetch counter.
    HysteresisPolicy hp(2, 6);
    hp.onEvicted(1, 0);
    EXPECT_EQ(hp.trackedPages(), 1u);
    hp.onRefetch(1); // same page: still one
    hp.onRefetch(2); // new counter
    EXPECT_EQ(hp.trackedPages(), 2u);
    hp.reset(1);
    hp.reset(2);
    EXPECT_EQ(hp.trackedPages(), 0u);

    AdaptiveThresholdPolicy ap(16, 2, 64);
    ap.onRelocated(1);
    EXPECT_EQ(ap.trackedPages(), 1u);
    ap.onRefetch(1);
    ap.onRefetch(2);
    EXPECT_EQ(ap.trackedPages(), 2u);
    ap.reset(1);
    ap.reset(2);
    EXPECT_EQ(ap.trackedPages(), 0u);
}

TEST(Hysteresis, ResetForgetsTheRevertedState)
{
    HysteresisPolicy hp(2, 6);
    hp.onEvicted(1, 0);
    EXPECT_EQ(hp.thresholdOf(1), 6u);
    hp.reset(1); // unmap: page identity is recycled
    EXPECT_EQ(hp.thresholdOf(1), 2u);
}

TEST(Hysteresis, RejectsInvertedThresholds)
{
    EXPECT_THROW(HysteresisPolicy(8, 4), std::logic_error);
}

TEST(Adaptive, ThresholdHalvesOnRelocationDownToTheFloor)
{
    AdaptiveThresholdPolicy ap(16, 2, 64);
    EXPECT_EQ(ap.thresholdOf(1), 16u);
    ap.onRelocated(1);
    EXPECT_EQ(ap.thresholdOf(1), 8u);
    ap.onRelocated(1);
    ap.onRelocated(1);
    EXPECT_EQ(ap.thresholdOf(1), 2u);
    ap.onRelocated(1);
    EXPECT_EQ(ap.thresholdOf(1), 2u); // clamped at the floor
}

TEST(Adaptive, ThresholdDoublesOnEvictionUpToTheCap)
{
    AdaptiveThresholdPolicy ap(16, 2, 64);
    ap.onEvicted(1, 0);
    EXPECT_EQ(ap.thresholdOf(1), 32u);
    ap.onEvicted(1, 0);
    EXPECT_EQ(ap.thresholdOf(1), 64u);
    ap.onEvicted(1, 0);
    EXPECT_EQ(ap.thresholdOf(1), 64u); // clamped at the cap
}

TEST(Adaptive, PingPongEscalatesTheReentryBar)
{
    // The Section 3.2 adversary cycle: a page relocates, is evicted
    // before the relocation pays off, refetches, and relocates
    // again. Each round trip must get strictly more expensive (T,
    // 2T, 4T refetches to re-enter) up to the cap — the original
    // formulation's eviction merely doubled back what the relocation
    // halved, so the cycle re-entered at exactly the static
    // threshold forever and "adaptive" was bit-identical to the
    // static rule on every machine run.
    AdaptiveThresholdPolicy ap(16, 2, 64);
    std::size_t previous = 0;
    for (int round = 0; round < 4; ++round) {
        std::size_t fired_after = 0;
        while (!ap.onRefetch(7))
            fired_after++;
        fired_after++; // the firing refetch
        if (round > 0 && previous < 64) {
            EXPECT_GT(fired_after, previous) << "round " << round;
        }
        previous = fired_after;
        ap.onRelocated(7);
        ap.onEvicted(7, 0);
    }
    // Escalation is capped: 16 -> 32 -> 64 -> 64.
    EXPECT_EQ(ap.thresholdOf(7), 64u);
}

TEST(Adaptive, StickyRelocationKeepsTheHalvedThreshold)
{
    // A relocation that is *not* undone by an eviction keeps the
    // page's halved threshold: demonstrated reuse re-enters cheaply.
    AdaptiveThresholdPolicy ap(16, 2, 64);
    ap.onRelocated(7);
    EXPECT_EQ(ap.thresholdOf(7), 8u);
    ap.reset(7); // unmap: the sticky page's state retires with it
    EXPECT_EQ(ap.thresholdOf(7), 16u);
    // Ping-pong (relocate then evict) escalates instead: 2x the
    // pre-relocation threshold, not a wash.
    ap.onRelocated(9);
    ap.onEvicted(9, 0);
    EXPECT_EQ(ap.thresholdOf(9), 32u);
}

TEST(Adaptive, EscalationIsExactWhenTheHalveClampedAtTheFloor)
{
    // A page whose halve clamped at minT must still escalate to 2x
    // its actual pre-relocation threshold on eviction — not 4x the
    // clamped value (the bookkeeping stores the entry threshold,
    // not a "was relocated" flag).
    AdaptiveThresholdPolicy ap(16, 4, 64);
    ap.onRelocated(7); // 16 -> 8
    ap.onRelocated(7); // 8 -> 4
    ap.onRelocated(7); // entry 4, clamped at the floor: stays 4
    EXPECT_EQ(ap.thresholdOf(7), 4u);
    ap.onEvicted(7, 0);
    EXPECT_EQ(ap.thresholdOf(7), 8u); // 2 x 4, not 4 x 4
}

TEST(Adaptive, PureReuseConvergesToTheFloor)
{
    AdaptiveThresholdPolicy ap(64, 4, 1024);
    for (int i = 0; i < 8; ++i)
        ap.onRelocated(7);
    EXPECT_EQ(ap.thresholdOf(7), 4u);
    // An adversarial page (relocations never stick) pins at the cap.
    for (int i = 0; i < 8; ++i)
        ap.onEvicted(9, 0);
    EXPECT_EQ(ap.thresholdOf(9), 1024u);
}

TEST(Policies, DescribeNamesTheConfiguration)
{
    EXPECT_EQ(StaticThresholdPolicy(64).describe(), "static(T=64)");
    EXPECT_EQ(HysteresisPolicy(64, 256).describe(),
              "hysteresis(T=64,T_reverted=256)");
    EXPECT_EQ(AdaptiveThresholdPolicy(64, 4, 1024).describe(),
              "adaptive(T0=64,min=4,max=1024)");
    EXPECT_EQ(UtilityThresholdPolicy(64, 4, 1024, 19).describe(),
              "utility(T0=64,min=4,max=1024,breakeven=19)");
    EXPECT_EQ(OnlineModelPolicy(19.0, 1, 1024).describe(),
              "online-model(T*=19,min=1,max=1024)");
    EXPECT_EQ(EwmaUtilityPolicy(4, 124, 19, 0.5).describe(),
              "ewma(min=4,max=124,breakeven=19,alpha=8/16)");
}

TEST(Policies, PreFeedbackPoliciesIgnoreResidentHits)
{
    // Bit-identity at the unit level: the PR 4/5 policies must make
    // identical decisions whatever hit count the eviction reports,
    // or the paper figures would drift the moment the RAD started
    // delivering real counts.
    Rng rng(0xfeedbac1);
    StaticThresholdPolicy sa(4), sb(4);
    HysteresisPolicy ha(2, 8), hb(2, 8);
    AdaptiveThresholdPolicy aa(16, 2, 64), ab(16, 2, 64);
    for (int step = 0; step < 20000; ++step) {
        Addr page = rng.below(8);
        std::uint64_t action = rng.below(100);
        std::uint64_t hits = rng.below(1000);
        if (action < 80) {
            ASSERT_EQ(sa.onRefetch(page), sb.onRefetch(page));
            ASSERT_EQ(ha.onRefetch(page), hb.onRefetch(page));
            ASSERT_EQ(aa.onRefetch(page), ab.onRefetch(page));
        } else if (action < 88) {
            sa.onRelocated(page); sb.onRelocated(page);
            ha.onRelocated(page); hb.onRelocated(page);
            aa.onRelocated(page); ab.onRelocated(page);
        } else if (action < 96) {
            sa.onEvicted(page, 0); sb.onEvicted(page, hits);
            ha.onEvicted(page, 0); hb.onEvicted(page, hits);
            aa.onEvicted(page, 0); ab.onEvicted(page, hits);
        } else {
            sa.reset(page); sb.reset(page);
            ha.reset(page); hb.reset(page);
            aa.reset(page); ab.reset(page);
        }
    }
}

TEST(Utility, ZeroHitEvictionEscalatesUpToTheCap)
{
    UtilityThresholdPolicy up(16, 2, 64, 19);
    up.onRelocated(1);
    EXPECT_EQ(up.thresholdOf(1), 16u); // relocation is not evidence
    up.onEvicted(1, 0);
    EXPECT_EQ(up.thresholdOf(1), 32u);
    up.onEvicted(1, 0);
    EXPECT_EQ(up.thresholdOf(1), 64u);
    up.onEvicted(1, 0);
    EXPECT_EQ(up.thresholdOf(1), 64u); // clamped at the cap
}

TEST(Utility, ProfitableEvictionDecaysBelowBreakEven)
{
    UtilityThresholdPolicy up(64, 4, 1024, 19);
    // A residency that amortized its page ops drops the page below
    // the break-even bar immediately (min(64, 19) / 2 = 9)...
    up.onEvicted(1, 19);
    EXPECT_EQ(up.thresholdOf(1), 9u);
    // ...and keeps halving on repeated profit, down to the floor.
    up.onEvicted(1, 5000);
    EXPECT_EQ(up.thresholdOf(1), 4u);
    up.onEvicted(1, 5000);
    EXPECT_EQ(up.thresholdOf(1), 4u);
}

TEST(Utility, BreakEvenBoundaryIsExact)
{
    // hits == breakEven - 1 is a wasted residency; hits == breakEven
    // is a profitable one. The boundary must not be off by one.
    UtilityThresholdPolicy waste(64, 4, 1024, 19);
    waste.onEvicted(1, 18);
    EXPECT_EQ(waste.thresholdOf(1), 128u);
    UtilityThresholdPolicy profit(64, 4, 1024, 19);
    profit.onEvicted(1, 19);
    EXPECT_EQ(profit.thresholdOf(1), 9u);
}

TEST(Utility, ResetForgetsTheLearnedThreshold)
{
    UtilityThresholdPolicy up(64, 4, 1024, 19);
    up.onEvicted(1, 0);
    EXPECT_EQ(up.thresholdOf(1), 128u);
    up.reset(1);
    EXPECT_EQ(up.thresholdOf(1), 64u);
    EXPECT_EQ(up.trackedPages(), 0u);
}

TEST(Utility, FiresAtThePerPageThreshold)
{
    UtilityThresholdPolicy up(8, 2, 64, 19);
    up.onEvicted(1, 100); // profitable: threshold min(8,19)/2 = 4
    EXPECT_EQ(up.thresholdOf(1), 4u);
    EXPECT_FALSE(up.onRefetch(1));
    EXPECT_FALSE(up.onRefetch(1));
    EXPECT_FALSE(up.onRefetch(1));
    EXPECT_TRUE(up.onRefetch(1));
    // An untouched page still uses the initial threshold.
    for (int i = 0; i < 7; ++i)
        EXPECT_FALSE(up.onRefetch(2));
    EXPECT_TRUE(up.onRefetch(2));
}

TEST(OnlineModel, StartsAtTheAnalyticOptimum)
{
    OnlineModelPolicy op(19.4, 1, 1024);
    EXPECT_EQ(op.threshold(), 19u);
    EXPECT_DOUBLE_EQ(op.estimatedHits(), 0.0);
    // With no eviction history the policy is rnuma-model: fires on
    // the round(T*)-th refetch.
    for (int i = 0; i < 18; ++i)
        EXPECT_FALSE(op.onRefetch(1));
    EXPECT_TRUE(op.onRefetch(1));
}

TEST(OnlineModel, ConvergesToOptimalThresholdOnStationaryStream)
{
    // The satellite's convergence target: on a synthetic stationary
    // zero-reuse eviction stream, the online estimate must converge
    // to AnalyticModel::optimalThreshold() on the configured
    // machine — the static rnuma-model pick.
    Params p = Params::base();
    AnalyticModel model(
        ModelParams::fromSystem(p, p.blocksPerPage() / 2));
    double tStar = model.optimalThreshold();
    OnlineModelPolicy op(tStar, 1, 16 * p.relocationThreshold);
    std::size_t expect =
        static_cast<std::size_t>(std::llround(tStar));

    // Perturb: a burst of very profitable residencies drives the
    // threshold to the floor...
    for (int i = 0; i < 50; ++i)
        op.onEvicted(1, 10000);
    EXPECT_EQ(op.threshold(), 1u);
    // ...then the stationary worst-case stream (every residency
    // wasted) decays the EWMA geometrically back to the analytic
    // optimum.
    for (int i = 0; i < 400; ++i)
        op.onEvicted(1, 0);
    EXPECT_EQ(op.threshold(), expect);
    EXPECT_LT(op.estimatedHits(), 0.5);
}

TEST(OnlineModel, ObservedReuseLowersTheGlobalThreshold)
{
    OnlineModelPolicy op(19.0, 1, 1024);
    op.onEvicted(1, 40); // EWMA moves 1/8 of the way: h = 5
    EXPECT_DOUBLE_EQ(op.estimatedHits(), 5.0);
    EXPECT_EQ(op.threshold(), 14u); // round(19 - 5)
    // The threshold is global: page 2 fires at the lowered bar.
    for (int i = 0; i < 13; ++i)
        EXPECT_FALSE(op.onRefetch(2));
    EXPECT_TRUE(op.onRefetch(2));
}

TEST(Ewma, NoEvidenceLandsAtTheMidpointThreshold)
{
    // u starts at 0.5, so min=4 / max=124 interpolates to 64 — the
    // registry picks the range so this is exactly the base T.
    EwmaUtilityPolicy ep(4, 124, 19, 0.5);
    EXPECT_DOUBLE_EQ(ep.utilityOf(1), 0.5);
    EXPECT_EQ(ep.thresholdOf(1), 64u);
}

TEST(Ewma, UtilityMovesTheThresholdBetweenTheRails)
{
    EwmaUtilityPolicy ep(4, 124, 19, 0.5);
    // Wasted residencies drive u toward 0 and the threshold toward
    // the distrust rail.
    for (int i = 0; i < 8; ++i)
        ep.onEvicted(1, 0);
    EXPECT_LT(ep.utilityOf(1), 0.01);
    EXPECT_EQ(ep.thresholdOf(1), 124u);
    // Profitable residencies drive u toward 1 and the threshold
    // toward the trust rail; half-marks land in between.
    for (int i = 0; i < 8; ++i)
        ep.onEvicted(2, 19);
    EXPECT_GT(ep.utilityOf(2), 0.99);
    EXPECT_EQ(ep.thresholdOf(2), 4u);
    ep.onEvicted(3, 9); // grade 9/19: below break-even, partial credit
    EXPECT_NEAR(ep.utilityOf(3), 0.487, 0.001);
    std::size_t mid = ep.thresholdOf(3);
    EXPECT_GT(mid, 4u);
    EXPECT_LT(mid, 124u);
}

TEST(Ewma, ResetRestoresTheNeutralScore)
{
    EwmaUtilityPolicy ep(4, 124, 19, 0.5);
    ep.onEvicted(1, 0);
    EXPECT_EQ(ep.thresholdOf(1), 94u); // u = 0.25
    ep.reset(1);
    EXPECT_EQ(ep.thresholdOf(1), 64u);
    EXPECT_EQ(ep.trackedPages(), 0u);
}

} // namespace rnuma
