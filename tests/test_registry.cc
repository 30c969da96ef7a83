/**
 * @file
 * Tests for the one registry mechanism (common/registry.hh), typed
 * over all three domains: ProtocolRegistry, NetworkRegistry, and
 * WorkloadRegistry. Covers invalid and duplicate registration,
 * case-insensitive id/display-name lookup (enum-era spellings such
 * as "CC-NUMA" are built-in display names), the fatal unknown-name
 * path, registration order, and a concurrent add/lookup hammer —
 * under TSan the test that catches an unguarded table. Domain
 * content (built-in lists, factories) is tested per domain.
 *
 * Specs registered here stay in the process-global registries
 * (specs are never removed); their ids carry a per-run test prefix,
 * so --gtest_repeat never re-registers one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/registry.hh"
#include "proto/registry.hh"
#include "workload/registry.hh"

namespace rnuma
{

namespace
{

/** Per-domain fixtures: a spec builder and one built-in to probe. */
template <class Spec>
struct Domain;

template <>
struct Domain<ProtocolSpec>
{
    static constexpr const char *probeId = "ccnuma";
    static constexpr const char *probeDisplay = "CC-NUMA";

    static ProtocolSpec make(std::string id, std::string display)
    {
        return hybridSpec(std::move(id), std::move(display),
                          "registry test spec", [](const Params &) {
                              return std::unique_ptr<RelocationPolicy>(
                                  std::make_unique<
                                      StaticThresholdPolicy>(1));
                          });
    }
};

template <>
struct Domain<NetworkSpec>
{
    static constexpr const char *probeId = "mesh-2d";
    static constexpr const char *probeDisplay = "2D mesh";

    static NetworkSpec make(std::string id, std::string display)
    {
        NetworkSpec s;
        s.id = std::move(id);
        s.displayName = std::move(display);
        s.description = "registry test spec";
        s.make = [](const Params &p) { return makeNetwork(p); };
        return s;
    }
};

template <>
struct Domain<WorkloadSpec>
{
    static constexpr const char *probeId = "zipf-serve";
    static constexpr const char *probeDisplay = "Zipf serving";

    static WorkloadSpec make(std::string id, std::string display)
    {
        WorkloadSpec s;
        s.id = std::move(id);
        s.displayName = std::move(display);
        s.description = "registry test spec";
        s.make = [](const Params &p, double scale, std::uint64_t seed,
                    const std::string &options) {
            return makeWorkload("radix", p, scale, seed, options);
        };
        return s;
    }
};

std::string
upper(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return s;
}

} // namespace

template <class Spec>
class RegistryTest : public ::testing::Test
{
  protected:
    using D = Domain<Spec>;

    static Registry<Spec> &reg() { return Registry<Spec>::global(); }

    /** A fresh id prefix: the global registry never forgets. */
    static std::string freshPrefix()
    {
        static int seq = 0;
        return std::string("registry-test-") + Spec::kind + "-r" +
            std::to_string(seq++) + "-";
    }
};

using Domains = ::testing::Types<ProtocolSpec, NetworkSpec,
                                 WorkloadSpec>;
TYPED_TEST_SUITE(RegistryTest, Domains);

TYPED_TEST(RegistryTest, RejectsInvalidAndDuplicateSpecs)
{
    using D = typename TestFixture::D;
    auto &reg = TestFixture::reg();
    const std::string p = TestFixture::freshPrefix();
    const std::size_t before = reg.size();

    // Invalid: no id / no factory, or an id that is not lowercase
    // without whitespace.
    EXPECT_THROW(reg.add(TypeParam{}), std::logic_error);
    EXPECT_THROW(reg.add(D::make(p + "Upper", "")), std::logic_error);
    EXPECT_THROW(reg.add(D::make(p + "a b", "")), std::logic_error);

    // Duplicate: the id, or the display name, already names a spec
    // (matched case-insensitively).
    EXPECT_THROW(reg.add(D::make(D::probeId, p + "display")),
                 std::runtime_error);
    EXPECT_THROW(reg.add(D::make(p + "dup", D::probeDisplay)),
                 std::runtime_error);
    EXPECT_THROW(reg.add(D::make(p + "dup", upper(D::probeId))),
                 std::runtime_error);
    std::string display = p + "Display";
    reg.add(D::make(p + "one", display));
    EXPECT_THROW(reg.add(D::make(p + "two", upper(display))),
                 std::runtime_error);
    EXPECT_EQ(reg.size(), before + 1);
}

TYPED_TEST(RegistryTest, LookupIsCaseInsensitiveOnIdAndDisplayName)
{
    using D = typename TestFixture::D;
    auto &reg = TestFixture::reg();
    const TypeParam &spec = reg.at(D::probeId);
    EXPECT_EQ(spec.id, D::probeId);
    EXPECT_EQ(spec.displayName, D::probeDisplay);
    EXPECT_EQ(reg.find(upper(D::probeId)), &spec);
    EXPECT_EQ(reg.find(D::probeDisplay), &spec);
    EXPECT_EQ(reg.find(upper(D::probeDisplay)), &spec);
    EXPECT_EQ(&reg.at(upper(D::probeDisplay)), &spec);
}

TYPED_TEST(RegistryTest, UnknownNameIsFatal)
{
    auto &reg = TestFixture::reg();
    EXPECT_EQ(reg.find("no-such-spec"), nullptr);
    EXPECT_EQ(reg.find(""), nullptr);
    try {
        reg.at("no-such-spec");
        ADD_FAILURE() << "unknown name resolved";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-spec"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::string("--list-") + TypeParam::kind +
                           "s"),
                  std::string::npos)
            << msg;
    }
}

TYPED_TEST(RegistryTest, AllIsInRegistrationOrder)
{
    using D = typename TestFixture::D;
    auto &reg = TestFixture::reg();
    const std::string p = TestFixture::freshPrefix();
    const std::size_t before = reg.size();
    const TypeParam &a = reg.add(D::make(p + "a", p + "A display"));
    const TypeParam &b = reg.add(D::make(p + "b", ""));
    auto all = reg.all();
    ASSERT_EQ(all.size(), before + 2);
    EXPECT_EQ(reg.size(), before + 2);
    EXPECT_EQ(all[before], &a);
    EXPECT_EQ(all[before + 1], &b);
    // Registered specs stay put: lookups return the stored copy.
    EXPECT_EQ(reg.find(p + "A DISPLAY"), &a);
    EXPECT_EQ(&reg.at(p + "b"), &b);
    for (const TypeParam *s : all)
        EXPECT_TRUE(s->valid()) << s->id;
}

TYPED_TEST(RegistryTest, ConcurrentAddAndLookupIsSafe)
{
    // Sweep workers may register ad-hoc specs while others resolve
    // names. Hammer both paths from many threads: under TSan this
    // catches an unguarded table, and even without TSan a torn
    // vector usually crashes.
    using D = typename TestFixture::D;
    auto &reg = TestFixture::reg();
    constexpr int writers = 4;
    constexpr int readers = 4;
    constexpr int perWriter = 8;
    const std::string prefix = TestFixture::freshPrefix();
    std::atomic<bool> go{false};
    std::atomic<int> registered{0};
    // gtest macros are not thread-safe; readers tally failures into
    // an atomic and the main thread asserts afterwards.
    std::atomic<int> readerFailures{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
        threads.emplace_back([&, w] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < perWriter; ++i) {
                std::string id = prefix + std::to_string(w) + "-" +
                    std::to_string(i);
                reg.add(D::make(id, id + " display"));
                registered.fetch_add(1);
            }
        });
    }
    for (int r = 0; r < readers; ++r) {
        threads.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < 200; ++i) {
                if (reg.find(D::probeDisplay) == nullptr)
                    readerFailures.fetch_add(1);
                for (const TypeParam *s : reg.all()) {
                    if (!s->valid())
                        readerFailures.fetch_add(1);
                }
            }
        });
    }
    go.store(true);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(readerFailures.load(), 0);
    EXPECT_EQ(registered.load(), writers * perWriter);
    for (int w = 0; w < writers; ++w) {
        for (int i = 0; i < perWriter; ++i) {
            std::string id =
                prefix + std::to_string(w) + "-" + std::to_string(i);
            EXPECT_NE(reg.find(id), nullptr) << id;
            EXPECT_NE(reg.find(upper(id) + " DISPLAY"), nullptr) << id;
        }
    }
}

} // namespace rnuma
