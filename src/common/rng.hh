/**
 * @file
 * Deterministic pseudo-random number generation for the workload
 * generators. The simulator itself never consumes randomness; every
 * run is reproducible from the workload seed alone.
 */

#ifndef RNUMA_COMMON_RNG_HH
#define RNUMA_COMMON_RNG_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace rnuma
{

/**
 * An xorshift64* generator: tiny, fast, and deterministic across
 * platforms (unlike std::default_random_engine distributions).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state(seed ? seed : 1)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dULL;
    }

    /**
     * Uniform integer in [0, bound): next() % bound. A power-of-two
     * bound (every block-in-page draw) masks instead of dividing,
     * which gives the same value. Panics on a bound of 0.
     */
    std::uint64_t
    below(std::uint64_t bound)
    {
        std::uint64_t x = next();
        if ((bound & (bound - 1)) == 0) {
            if (bound == 0)
                zeroBound();
            return x & (bound - 1);
        }
        return x % bound;
    }

    /** Uniform integer in [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial with probability p. */
    bool chance(double p) { return uniform() < p; }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(below(i));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    [[noreturn, gnu::cold, gnu::noinline]] static void
    zeroBound()
    {
        RNUMA_PANIC("Rng::below needs a bound > 0");
    }

    std::uint64_t state;
};

} // namespace rnuma

#endif // RNUMA_COMMON_RNG_HH
