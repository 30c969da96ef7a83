#include "workload/serving.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "workload/registry.hh"
#include "workload/synthetic.hh"

namespace rnuma
{

namespace
{

/**
 * Precomputed Zipf(theta) sampler over ranks [0, n): rank r carries
 * weight 1/(r+1)^theta. Sampling is a uniform draw against the
 * cumulative weight table (binary search), so the stream cost is
 * O(log n) per reference with no rejection.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double theta)
    {
        RNUMA_ASSERT(n > 0, "zipf sampler needs a non-empty pool");
        RNUMA_ASSERT(theta >= 0.0, "zipf skew theta must be >= 0, got ",
                     theta);
        cum_.reserve(n);
        double total = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            total += 1.0 /
                     std::pow(static_cast<double>(r + 1), theta);
            cum_.push_back(total);
        }
    }

    /**
     * The rank std::lower_bound would find for the draw, clamped to
     * the last rank, by a branch-free search (Khuong and Morin,
     * "Array Layouts for Comparison-Based Searching", JEA 2017): the
     * loop's only jump is its own exit, which depends on n alone.
     *
     * The halving step must stay arithmetic in the object code. A
     * conditional expression compiles to a jump under GCC 12, which
     * the uniform draw mispredicts half the time; a comparison masked
     * into the step (`half & -size_t(x < u)`) is branch-free under
     * GCC, but LLVM turns it back into a select and then into a jump.
     * So the step takes its mask from the sign bit of x - u, which
     * for finite doubles is set exactly when x < u: gradual
     * underflow keeps a nonzero difference nonzero, and x - x is +0.
     */
    std::size_t
    draw(Rng &rng) const
    {
        double u = rng.uniform() * cum_.back();
        const double *base = cum_.data();
        std::size_t n = cum_.size();
        while (n > 1) {
            std::size_t half = n / 2;
            double diff = base[half - 1] - u;
            std::uint64_t bits;
            std::memcpy(&bits, &diff, sizeof bits);
            base += half & -(bits >> 63);
            n -= half;
        }
        std::size_t rank = static_cast<std::size_t>(base - cum_.data()) +
                           (*base < u);
        return std::min(rank, cum_.size() - 1);
    }

  private:
    std::vector<double> cum_;
};

} // namespace

std::unique_ptr<Workload>
makeZipfServe(const Params &p, double scale, std::uint64_t seed,
              const std::string &options)
{
    auto o = WorkloadOptions::parse(options);
    std::size_t pages =
        o.getSize("pages", scaled(480, scale, 16), 1, maxPages);
    double theta = o.getDouble("theta", 0.8, 0.0);
    double writeFrac = o.getDouble("write", 0.1, 0.0, 1.0);
    std::size_t requests =
        o.getSize("requests", scaled(2400, scale, 40), 1,
                  maxStreamCount);
    o.finish("zipf-serve");

    StreamBuilder b("zipf-serve", p, seed);
    // Per CPU: the placement touches, a session touch and a barrier,
    // then per request a read, at most one update and a session
    // write, then the End marker.
    b.reserveEach({requests, 3}, b.roundRobinPages(0, pages) + 3);
    Addr pool = b.allocPages(pages);
    b.homeRoundRobin(pool, pages);
    // Per-CPU session state: private, node-local request scratch.
    std::vector<Addr> session(b.ncpus());
    for (CpuId c = 0; c < b.ncpus(); ++c) {
        session[c] = b.allocPages(1);
        b.touchRange(c, session[c], p.pageSize);
    }
    b.barrier();

    ZipfSampler zipf(pages, theta);
    // Hoisted: the appends store through size_t fields the compiler
    // cannot tell from p's, so a call in the loop divides per entry.
    const std::size_t blocks = p.blocksPerPage();
    for (std::size_t req = 0; req < requests; ++req) {
        Addr slot = (req % blocks) * p.blockSize;
        for (CpuId c = 0; c < b.ncpus(); ++c) {
            std::size_t pg = zipf.draw(b.rng());
            Addr a = pool + pg * p.pageSize +
                     b.rng().below(blocks) * p.blockSize;
            b.read(c, a, 6);
            if (b.rng().chance(writeFrac))
                b.write(c, a, 4);
            b.write(c, session[c] + slot, 2);
        }
    }
    return b.finish();
}

std::unique_ptr<Workload>
makePhaseShift(const Params &p, double scale, std::uint64_t seed,
               const std::string &options)
{
    auto o = WorkloadOptions::parse(options);
    // Pool ~3x the frame budget (geometry-derived, like evict-storm:
    // the rotation must overflow the page cache at every scale).
    std::size_t pages =
        o.getSize("pages", 3 * p.pageCacheFrames(), 1, maxPages);
    std::size_t phases = o.getSize("phases", 6, 1, maxStreamCount);
    std::size_t sweeps = o.getSize("sweeps", scaled(4, scale, 2), 1,
                                   maxStreamCount);
    o.finish("phase-shift");

    std::size_t window = std::min(pages, p.pageCacheFrames());
    std::size_t step = std::max<std::size_t>(1, pages / phases);

    StreamBuilder b("phase-shift", p, seed);
    // Per CPU: the placement touches and a barrier, then per window
    // page a read and at most one update, a barrier per phase, and
    // the End marker.
    b.reserveEach({phases, sweeps, window, 2},
                  b.roundRobinPages(0, pages) + phases + 2);
    Addr pool = b.allocPages(pages);
    b.homeRoundRobin(pool, pages);
    b.barrier();

    const std::size_t blocks = p.blocksPerPage();
    for (std::size_t ph = 0; ph < phases; ++ph) {
        std::size_t start = ph * step;
        for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
            for (std::size_t i = 0; i < window; ++i) {
                Addr page = pool + ((start + i) % pages) * p.pageSize;
                for (CpuId c = 0; c < b.ncpus(); ++c) {
                    Addr a = page + b.rng().below(blocks) * p.blockSize;
                    b.read(c, a, 4);
                    // In-place updates keep the set read-write
                    // shared (the Section 1 traffic class).
                    if (b.rng().chance(0.1))
                        b.write(c, a, 4);
                }
            }
        }
        // The phase boundary: the window advances past the barrier,
        // so pages relocated this phase fall cold in the next.
        b.barrier();
    }
    return b.finish();
}

} // namespace rnuma
