/**
 * @file
 * Pure machine-geometry math shared by Params::validate() and the
 * topology network models: rectangular mesh factorization and
 * power-of-two checks. Header-only and dependency-free so the common
 * layer can reject un-embeddable geometry without depending on net/.
 */

#ifndef RNUMA_COMMON_GEOMETRY_HH
#define RNUMA_COMMON_GEOMETRY_HH

#include <cstddef>

namespace rnuma
{

inline bool
isPow2(std::size_t n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

/**
 * ceil(log2(n)), with ceilLog2(0/1) == 0. For a power of two, the
 * shift that replaces a division by it.
 */
inline unsigned
ceilLog2(std::size_t n)
{
    unsigned bits = 0;
    while ((std::size_t{1} << bits) < n)
        ++bits;
    return bits;
}

/**
 * Factor @p nodes into a near-square W x H mesh (W >= H). H is the
 * largest divisor of nodes with H*H <= nodes; the mesh is accepted
 * only when the aspect ratio is at most 2:1 (W <= 2*H), the
 * "rectangular" requirement of the mesh-2d model — 8 -> 4x2,
 * 16 -> 4x4, 32 -> 8x4, 128 -> 16x8, 512 -> 32x16; primes > 2 and
 * skewed factorizations (e.g. 2xN strips past N=4) are rejected.
 *
 * @return true and fills @p w / @p h when the geometry embeds.
 */
inline bool
meshDims(std::size_t nodes, std::size_t *w, std::size_t *h)
{
    if (nodes < 1)
        return false;
    std::size_t best = 1;
    for (std::size_t d = 1; d * d <= nodes; ++d)
        if (nodes % d == 0)
            best = d;
    const std::size_t width = nodes / best;
    if (width > 2 * best)
        return false;
    if (w)
        *w = width;
    if (h)
        *h = best;
    return true;
}

} // namespace rnuma

#endif // RNUMA_COMMON_GEOMETRY_HH
