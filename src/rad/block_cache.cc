#include "rad/block_cache.hh"

namespace rnuma
{

BlockCache::BlockCache(std::size_t size_bytes, const Params &params,
                       bool infinite)
    : cache(infinite ? params.pageSize : size_bytes, params.blockSize,
            params.blockCacheAssoc, infinite)
{
}

} // namespace rnuma
