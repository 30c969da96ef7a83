/**
 * @file
 * Pins every registered generator's reference stream to a committed
 * 64-bit FNV-1a digest. A change that only makes generation faster
 * (an inline append, a masked draw, a reserved stream) must leave
 * every entry of every stream as it was; any drift names the
 * workload whose digest moved.
 *
 * Each CPU's entries are hashed field by field (kind, write, think,
 * address), never as raw bytes, so the digest does not depend on how
 * a Ref packs its fields. The workload's memRefCount() and
 * addrLimit() are hashed too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "workload/registry.hh"

namespace rnuma
{

namespace
{

/** The scale every generator is built at: small, but past each
 * generator's structural minimum. */
constexpr double digestScale = 0.1;

/** 64-bit FNV-1a over values fed little-endian, 8 bytes each. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

std::uint64_t
streamDigest(const Workload &wl)
{
    Fnv1a h;
    h.add(wl.numCpus());
    for (CpuId c = 0; c < wl.numCpus(); ++c) {
        h.add(wl.size(c));
        for (std::size_t i = 0; i < wl.size(c); ++i) {
            const Ref &r = wl.at(c, i);
            h.add(static_cast<std::uint64_t>(r.kind));
            h.add(r.write);
            h.add(r.think);
            h.add(r.addr);
        }
    }
    h.add(wl.memRefCount());
    h.add(wl.addrLimit());
    return h.value();
}

/** Digests recorded before the generators' append path was
 * optimized; keyed "<id>" or "<id>:<options>". */
const std::map<std::string, std::uint64_t> expectedDigests = {
    {"barnes", 0xca32adbef08b62a9ULL},
    {"cholesky", 0x3e279f8cff3a31ccULL},
    {"em3d", 0x099e9dec081c1decULL},
    {"fft", 0x5f4efd909e08d6b6ULL},
    {"fmm", 0x5d6c1ee20bffe620ULL},
    {"lu", 0xf786ad07b0d5004fULL},
    {"moldyn", 0xfe7b6ef603b0eb69ULL},
    {"ocean", 0x464303f2390419fcULL},
    {"radix", 0x7547fc7f81457195ULL},
    {"raytrace", 0xb10cbdea81e4ede9ULL},
    {"private-loop", 0xaf620a4c792ddd04ULL},
    {"hot-reuse", 0x7fa6b188b48d2429ULL},
    {"evict-storm", 0x2ab3ecfb1ed47fe2ULL},
    {"producer-consumer", 0xf6a608942d7d549eULL},
    {"rw-sharing", 0x0e5edb7228cb9598ULL},
    {"adversary", 0x40436b54fe6b16c9ULL},
    {"scaling-shift", 0x3ab04dce2a9a8c2dULL},
    {"zipf-serve", 0x1a1a0f4c44814d0cULL},
    {"phase-shift", 0xc311841d15c2c292ULL},
    {"zipf-serve:theta=0", 0x1ff176ffd134260dULL},
    {"zipf-serve:theta=1.2", 0xbddd397a9119be80ULL},
    // Recorded before the Zipf search became arithmetic and the
    // serving generators reserved ahead of their placement touches.
    {"zipf-serve:pages=48,theta=0.6,write=0.3,requests=60@mesh64",
     0x1d81deff31fdd03fULL},
    {"zipf-serve:pages=48,theta=0.6,write=0.3,requests=60@mesh128",
     0x3df20499e002c42fULL},
    {"phase-shift:pages=240,phases=3,sweeps=12", 0xe62fee55efc40b1cULL},
    {"phase-shift:pages=240,phases=12,sweeps=12", 0x1f9bdebcbb911574ULL},
    {"zipf-serve:pages=1", 0x70549d60e6510b7fULL},
};

/** The mesh-2d machine of @p nodes nodes perfbench's mesh-sharing
 * workload generates zipf-serve on. */
Params
meshParams(std::size_t nodes)
{
    Params p = Params::base();
    p.numNodes = nodes;
    p.networkModel = "mesh-2d";
    return p;
}

/** Compare the digest of one workload built on @p p, keyed as in
 * expectedDigests plus "@<tag>" for a machine other than
 * Params::base(); a mismatch prints the table line that records the
 * new value. */
void
checkDigest(const std::string &id, const std::string &options,
            const Params &p = Params::base(), const std::string &tag = "")
{
    std::string key = options.empty() ? id : id + ":" + options;
    if (!tag.empty())
        key += "@" + tag;
    auto wl = makeWorkload(id, p, digestScale, 1, options);
    std::uint64_t got = streamDigest(*wl);
    std::ostringstream line;
    line << "{\"" << key << "\", 0x" << std::hex << std::setw(16)
         << std::setfill('0') << got << "ULL},";
    auto it = expectedDigests.find(key);
    ASSERT_NE(it, expectedDigests.end())
        << "no recorded digest for workload '" << key << "': "
        << line.str();
    EXPECT_EQ(got, it->second)
        << "workload '" << key << "' stream changed: " << line.str();
}

} // namespace

TEST(StreamDigest, EveryRegisteredGeneratorIsUnchanged)
{
    std::set<std::string> seen;
    for (const WorkloadSpec *spec : WorkloadRegistry::global().all()) {
        SCOPED_TRACE(spec->id);
        checkDigest(spec->id, "");
        seen.insert(spec->id);
    }
    // A registered id without a recorded digest fails above; a
    // recorded id that is no longer registered fails here.
    for (const auto &kv : expectedDigests) {
        std::string id = kv.first.substr(0, kv.first.find_first_of(":@"));
        EXPECT_TRUE(seen.count(id))
            << "digest recorded for unregistered workload '" << id
            << "'";
    }
}

TEST(StreamDigest, ZipfServeSkewExtremesAreUnchanged)
{
    checkDigest("zipf-serve", "theta=0");
    checkDigest("zipf-serve", "theta=1.2");
}

// perfbench's mesh-sharing streams: 256 and 512 CPUs, so the Zipf
// search and the stream reservations run at their widest.
TEST(StreamDigest, MeshSharingZipfServeIsUnchanged)
{
    const std::string options = "pages=48,theta=0.6,write=0.3,requests=60";
    checkDigest("zipf-serve", options, meshParams(64), "mesh64");
    checkDigest("zipf-serve", options, meshParams(128), "mesh128");
}

// perfbench's relocation-churn streams.
TEST(StreamDigest, RelocationChurnPhaseShiftIsUnchanged)
{
    checkDigest("phase-shift", "pages=240,phases=3,sweeps=12");
    checkDigest("phase-shift", "pages=240,phases=12,sweeps=12");
}

// A one-page pool: every draw is rank 0 without a search step.
TEST(StreamDigest, ZipfServeSinglePageIsUnchanged)
{
    checkDigest("zipf-serve", "pages=1");
}

} // namespace rnuma
