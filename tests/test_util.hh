/**
 * @file
 * Shared helpers for the unit and integration tests: a deliberately
 * tiny machine configuration that makes cache, page-cache, and
 * threshold behaviors easy to trigger with short reference streams.
 */

#ifndef RNUMA_TESTS_TEST_UTIL_HH
#define RNUMA_TESTS_TEST_UTIL_HH

#include <memory>
#include <string>

#include "common/params.hh"
#include "workload/registry.hh"

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

/**
 * makeWorkload() for a generator that materializes its streams (the
 * Table 3 apps, the micros), for tests that inspect them; nullptr
 * when the product is not a VectorWorkload.
 */
inline std::unique_ptr<VectorWorkload>
makeVectorWorkload(const std::string &id, const Params &p,
                   double scale, std::uint64_t seed = 1)
{
    std::unique_ptr<Workload> wl = makeWorkload(id, p, scale, seed);
    if (!dynamic_cast<VectorWorkload *>(wl.get()))
        return nullptr;
    return std::unique_ptr<VectorWorkload>(
        static_cast<VectorWorkload *>(wl.release()));
}

} // namespace rnuma::test

#endif // RNUMA_TESTS_TEST_UTIL_HH
