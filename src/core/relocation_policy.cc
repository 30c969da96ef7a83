#include "core/relocation_policy.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rnuma
{

namespace
{

/** round(t) half up, clamped to [lo, hi]; t may be negative. */
std::size_t
roundClamped(double t, std::size_t lo, std::size_t hi)
{
    std::size_t rounded =
        t <= 0.0 ? 0 : static_cast<std::size_t>(t + 0.5);
    return std::min(hi, std::max(lo, rounded));
}

/** EwmaUtilityPolicy's threshold at utility @p u. */
std::size_t
ewmaThreshold(double u, std::size_t minT, std::size_t maxT)
{
    return roundClamped(static_cast<double>(maxT) +
                            u * (static_cast<double>(minT) -
                                 static_cast<double>(maxT)),
                        minT, maxT);
}

} // namespace

//--------------------------------------------------------------------------
// ThresholdPolicy
//--------------------------------------------------------------------------

std::size_t
ThresholdPolicy::thresholdOf(Addr page) const
{
    const std::size_t t = pages_[page].t;
    return t ? t : defaultT;
}

bool
ThresholdPolicy::onRefetch(Addr page)
{
    PageState &ps = pages_.slot(page);
    if (++ps.count >= (ps.t ? ps.t : defaultT)) {
        ps.count = 0;
        return true;
    }
    return false;
}

void
ThresholdPolicy::onRelocated(Addr page)
{
    pages_.slot(page).count = 0;
    relocated(page);
}

void
ThresholdPolicy::onEvicted(Addr page, std::uint64_t residentHits)
{
    pages_.slot(page).count = 0;
    evicted(page, residentHits);
}

void
ThresholdPolicy::reset(Addr page)
{
    pages_.reset(page);
    forget(page);
}

std::uint64_t
ThresholdPolicy::count(Addr page) const
{
    return pages_[page].count;
}

std::size_t
ThresholdPolicy::trackedPages() const
{
    std::size_t n = 0;
    for (const PageState &ps : pages_)
        n += ps.count != 0 || ps.t != 0;
    return n;
}

//--------------------------------------------------------------------------
// StaticThresholdPolicy
//--------------------------------------------------------------------------

StaticThresholdPolicy::StaticThresholdPolicy(std::size_t threshold)
    : ThresholdPolicy(threshold)
{
    RNUMA_ASSERT(threshold >= 1, "threshold must be at least 1");
}

std::string
StaticThresholdPolicy::describe() const
{
    return "static(T=" + std::to_string(defaultT) + ")";
}

//--------------------------------------------------------------------------
// HysteresisPolicy
//--------------------------------------------------------------------------

HysteresisPolicy::HysteresisPolicy(std::size_t relocateThreshold,
                                   std::size_t revertedThreshold)
    : ThresholdPolicy(relocateThreshold), revertT(revertedThreshold)
{
    RNUMA_ASSERT(defaultT >= 1, "relocate threshold must be at least 1");
    RNUMA_ASSERT(revertT >= defaultT,
                 "reverted threshold (", revertT,
                 ") must not be below the relocate threshold (",
                 defaultT, ")");
}

void
HysteresisPolicy::evicted(Addr page, std::uint64_t /*residentHits*/)
{
    setThreshold(page, revertT);
}

std::string
HysteresisPolicy::describe() const
{
    return "hysteresis(T=" + std::to_string(defaultT) +
        ",T_reverted=" + std::to_string(revertT) + ")";
}

//--------------------------------------------------------------------------
// AdaptiveThresholdPolicy
//--------------------------------------------------------------------------

AdaptiveThresholdPolicy::AdaptiveThresholdPolicy(
    std::size_t initialThreshold, std::size_t minThreshold,
    std::size_t maxThreshold)
    : ThresholdPolicy(initialThreshold), minT(minThreshold),
      maxT(maxThreshold)
{
    RNUMA_ASSERT(minT >= 1, "minimum threshold must be at least 1");
    RNUMA_ASSERT(minT <= defaultT && defaultT <= maxT,
                 "need min <= initial <= max, got ", minT, " / ",
                 defaultT, " / ", maxT);
}

void
AdaptiveThresholdPolicy::relocated(Addr page)
{
    std::size_t entry = thresholdOf(page);
    setThreshold(page, std::max(minT, entry / 2));
    entryT.slot(page) = entry;
}

void
AdaptiveThresholdPolicy::evicted(Addr page,
                                 std::uint64_t /*residentHits*/)
{
    // An eviction that undoes a relocation is one ping-pong round
    // trip: escalate from the page's pre-relocation threshold, so
    // churn costs T, 2T, 4T, ... instead of washing out against the
    // relocation's halve — doubling the current (halved) value
    // would re-enter at exactly the static threshold forever.
    // Free-standing evictions (no relocation recorded) double the
    // current value.
    std::size_t from = entryT[page];
    if (from)
        entryT.reset(page);
    else
        from = thresholdOf(page);
    setThreshold(page, std::min(maxT, from * 2));
}

void
AdaptiveThresholdPolicy::forget(Addr page)
{
    entryT.reset(page);
}

std::string
AdaptiveThresholdPolicy::describe() const
{
    return "adaptive(T0=" + std::to_string(defaultT) + ",min=" +
        std::to_string(minT) + ",max=" + std::to_string(maxT) + ")";
}

//--------------------------------------------------------------------------
// UtilityThresholdPolicy
//--------------------------------------------------------------------------

UtilityThresholdPolicy::UtilityThresholdPolicy(
    std::size_t initialThreshold, std::size_t minThreshold,
    std::size_t maxThreshold, std::uint64_t breakEvenHits)
    : ThresholdPolicy(initialThreshold), minT(minThreshold),
      maxT(maxThreshold), breakEvenHits(breakEvenHits)
{
    RNUMA_ASSERT(minT >= 1, "minimum threshold must be at least 1");
    RNUMA_ASSERT(minT <= defaultT && defaultT <= maxT,
                 "need min <= initial <= max, got ", minT, " / ",
                 defaultT, " / ", maxT);
    RNUMA_ASSERT(breakEvenHits >= 1,
                 "break-even hit count must be at least 1");
}

void
UtilityThresholdPolicy::evicted(Addr page, std::uint64_t residentHits)
{
    // Relocation is not evidence; only the residency's outcome is.
    std::size_t cur = thresholdOf(page);
    if (residentHits >= breakEvenHits) {
        // Profitable residency: the page ops were amortized, so the
        // page has earned eager re-entry. Jump below the break-even
        // bar on first profit and keep halving on repeated profit.
        setThreshold(page,
                     std::max(minT, std::min<std::size_t>(
                                        cur, breakEvenHits) / 2));
    } else {
        // Wasted residency: ping-pong evidence, exponential back-off.
        setThreshold(page, std::min(maxT, cur * 2));
    }
}

std::string
UtilityThresholdPolicy::describe() const
{
    return "utility(T0=" + std::to_string(defaultT) + ",min=" +
        std::to_string(minT) + ",max=" + std::to_string(maxT) +
        ",breakeven=" + std::to_string(breakEvenHits) + ")";
}

//--------------------------------------------------------------------------
// OnlineModelPolicy
//--------------------------------------------------------------------------

OnlineModelPolicy::OnlineModelPolicy(double optimalThreshold,
                                     std::size_t minThreshold,
                                     std::size_t maxThreshold)
    : ThresholdPolicy(minThreshold), tStar(optimalThreshold),
      minT(minThreshold), maxT(maxThreshold)
{
    RNUMA_ASSERT(minT >= 1, "minimum threshold must be at least 1");
    RNUMA_ASSERT(minT <= maxT, "need min <= max, got ", minT, " / ",
                 maxT);
    RNUMA_ASSERT(tStar > 0.0, "analytic optimum must be positive");
    reestimate();
}

void
OnlineModelPolicy::reestimate()
{
    // Each expected resident hit is one refetch's worth of cost the
    // residency repays, so it lowers the competitive bar one-for-one.
    // t <= tStar, a machine constant, so the rounding cast is in
    // range.
    defaultT = roundClamped(tStar - avgHits, minT, maxT);
}

void
OnlineModelPolicy::evicted(Addr /*page*/, std::uint64_t residentHits)
{
    // alpha = 1/8; pure IEEE add/multiply keeps this deterministic
    // across platforms.
    avgHits += (static_cast<double>(residentHits) - avgHits) / 8.0;
    reestimate();
}

std::string
OnlineModelPolicy::describe() const
{
    // Config-only (the live threshold moves at runtime): report the
    // analytic anchor and the clamp range.
    std::size_t anchor = static_cast<std::size_t>(tStar + 0.5);
    return "online-model(T*=" + std::to_string(anchor) + ",min=" +
        std::to_string(minT) + ",max=" + std::to_string(maxT) + ")";
}

//--------------------------------------------------------------------------
// EwmaUtilityPolicy
//--------------------------------------------------------------------------

EwmaUtilityPolicy::EwmaUtilityPolicy(std::size_t minThreshold,
                                     std::size_t maxThreshold,
                                     std::uint64_t breakEvenHits,
                                     double alpha)
    : ThresholdPolicy(ewmaThreshold(0.5, minThreshold, maxThreshold)),
      minT(minThreshold), maxT(maxThreshold),
      breakEvenHits(breakEvenHits), alpha(alpha)
{
    RNUMA_ASSERT(minT >= 1, "minimum threshold must be at least 1");
    RNUMA_ASSERT(minT <= maxT, "need min <= max, got ", minT, " / ",
                 maxT);
    RNUMA_ASSERT(breakEvenHits >= 1,
                 "break-even hit count must be at least 1");
    RNUMA_ASSERT(alpha > 0.0 && alpha <= 1.0,
                 "EWMA gain must be in (0, 1]");
}

double
EwmaUtilityPolicy::utilityOf(Addr page) const
{
    return utility[page];
}

void
EwmaUtilityPolicy::evicted(Addr page, std::uint64_t residentHits)
{
    double grade = static_cast<double>(residentHits) /
        static_cast<double>(breakEvenHits);
    if (grade > 1.0)
        grade = 1.0;
    double u = (1.0 - alpha) * utilityOf(page) + alpha * grade;
    utility.slot(page) = u;
    setThreshold(page, ewmaThreshold(u, minT, maxT));
}

void
EwmaUtilityPolicy::forget(Addr page)
{
    utility.reset(page);
}

std::string
EwmaUtilityPolicy::describe() const
{
    // alpha is a small k/16 rational in practice; print it as such
    // to keep the string free of locale-dependent float formatting.
    std::size_t alpha16 =
        static_cast<std::size_t>(alpha * 16.0 + 0.5);
    return "ewma(min=" + std::to_string(minT) + ",max=" +
        std::to_string(maxT) + ",breakeven=" +
        std::to_string(breakEvenHits) + ",alpha=" +
        std::to_string(alpha16) + "/16)";
}

} // namespace rnuma
