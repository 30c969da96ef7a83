/**
 * @file
 * Shared helpers for the unit and integration tests: a deliberately
 * tiny machine configuration that makes cache, page-cache, and
 * threshold behaviors easy to trigger with short reference streams,
 * and a sharer-set counter.
 */

#ifndef RNUMA_TESTS_TEST_UTIL_HH
#define RNUMA_TESTS_TEST_UTIL_HH

#include <cstddef>

#include "common/params.hh"
#include "proto/directory.hh"

namespace rnuma::test
{

/**
 * A 2-node x 2-CPU machine with small caches: 512 B pages (16 blocks
 * per page), 512 B L1s, 1 KB block cache, 4-frame page cache, and a
 * relocation threshold of 4.
 */
inline Params
smallParams()
{
    Params p;
    p.numNodes = 2;
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

/** The paper's base machine, unchanged. */
inline Params
paperParams()
{
    return Params::base();
}

/** The nodes a sharer set reports, counted through forEach(). */
inline std::size_t
sharerCount(const SharerSet &s)
{
    std::size_t n = 0;
    s.forEach([&n](NodeId) { ++n; });
    return n;
}

} // namespace rnuma::test

#endif // RNUMA_TESTS_TEST_UTIL_HH
