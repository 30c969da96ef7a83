#include "common/params.hh"

#include <string>

#include "common/geometry.hh"
#include "common/logging.hh"

namespace rnuma
{

Params
Params::base()
{
    Params p;
    p.validate();
    return p;
}

Params
Params::soft()
{
    Params p;
    // 10 us page-fault handling at 400 MHz.
    p.softTrap = 4000;
    // 5 us software TLB invalidation via inter-processor interrupts.
    p.tlbShootdown = 2000;
    p.validate();
    return p;
}

std::string
Params::directoryId() const
{
    switch (dirFormat) {
      case SharerFormat::FullMap:
        return "full-map";
      case SharerFormat::LimitedPointer:
        return "limited-pointer-" + std::to_string(dirPointers);
      case SharerFormat::CoarseVector:
        return "coarse-vector-" + std::to_string(dirRegionSize);
    }
    return "?";
}

std::uint64_t
Params::fingerprint() const
{
    // splitmix-style accumulation; order fixed by this listing.
    std::uint64_t h = 0x524e554d41ULL; // "RNUMA"
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
    };
    mix(numNodes);
    mix(cpusPerNode);
    mix(blockSize);
    mix(pageSize);
    mix(l1Size);
    mix(l1Assoc);
    mix(blockCacheSize);
    mix(blockCacheAssoc);
    mix(infiniteBlockCache ? 1 : 0);
    mix(rnumaBlockCacheSize);
    mix(pageCacheSize);
    mix(relocationThreshold);
    mix(priorOwnerState ? 1 : 0);
    mix(sramAccess);
    mix(dramAccess);
    mix(busLatency);
    mix(busOccupancy);
    mix(radOccupancy);
    mix(niOccupancy);
    mix(netLatency);
    mix(dirAccess);
    mix(softTrap);
    mix(tlbShootdown);
    mix(pageSetup);
    mix(blockFlush);
    mix(barrierCost);
    // FNV-1a over the model id keeps the hash stable across builds
    // (std::hash would be implementation-defined).
    std::uint64_t name_hash = 0xcbf29ce484222325ULL;
    for (char c : networkModel) {
        name_hash ^= static_cast<unsigned char>(c);
        name_hash *= 0x100000001b3ULL;
    }
    mix(name_hash);
    mix(hopLatency);
    mix(linkOccupancy);
    mix(static_cast<std::uint64_t>(dirFormat));
    mix(dirPointers);
    mix(dirRegionSize);
    return h;
}

void
Params::validate() const
{
    RNUMA_ASSERT(numNodes >= 1 && numNodes <= maxNodes,
                 "numNodes out of range: ", numNodes);
    RNUMA_ASSERT(cpusPerNode >= 1, "need at least one CPU per node");
    RNUMA_ASSERT(blockSize > 0 && (blockSize & (blockSize - 1)) == 0,
                 "blockSize must be a power of two: ", blockSize);
    RNUMA_ASSERT(pageSize % blockSize == 0,
                 "pageSize must be a multiple of blockSize");
    RNUMA_ASSERT(l1Size % blockSize == 0, "l1Size not block aligned");
    RNUMA_ASSERT(blockCacheSize % blockSize == 0,
                 "blockCacheSize not block aligned");
    RNUMA_ASSERT(pageCacheSize % pageSize == 0,
                 "pageCacheSize not page aligned");
    RNUMA_ASSERT(pageCacheFrames() >= 1, "page cache needs >= 1 frame");
    RNUMA_ASSERT(relocationThreshold >= 1,
                 "relocation threshold must be positive");
    // Geometry the chosen topology cannot embed is a configuration
    // error, not a runtime surprise. The ids are checked by name so
    // the common layer stays independent of net/registry; unknown ids
    // are rejected later by makeNetwork().
    if (networkModel == "mesh-2d") {
        RNUMA_ASSERT(meshDims(numNodes, nullptr, nullptr),
                     "mesh-2d cannot embed ", numNodes,
                     " nodes in a rectangular (<= 2:1) mesh");
        RNUMA_ASSERT(hopLatency >= 1, "mesh hopLatency must be >= 1");
    }
    if (networkModel == "fat-tree") {
        RNUMA_ASSERT(isPow2(numNodes),
                     "fat-tree needs a power-of-two node count, got ",
                     numNodes);
        RNUMA_ASSERT(hopLatency >= 1,
                     "fat-tree hopLatency must be >= 1");
    }
    RNUMA_ASSERT(dirPointers >= 1,
                 "limited-pointer directory needs >= 1 pointer");
    RNUMA_ASSERT(dirRegionSize >= 1,
                 "coarse-vector region size must be >= 1");
}

} // namespace rnuma
