/**
 * @file
 * Tests for the network registry's domain content (net/registry.hh):
 * the built-ins in order, makeNetwork() dispatch, the model-derived
 * remote-fetch latency, and Params::validate()'s geometry rejection.
 * The registry mechanism itself (lookup, duplicates, concurrency) is
 * tested in test_registry.cc.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/registry.hh"
#include "net/topology.hh"

namespace rnuma
{

TEST(NetworkRegistry, HasTheBuiltinsInOrder)
{
    auto all = NetworkRegistry::global().all();
    ASSERT_GE(all.size(), 3u);
    EXPECT_EQ(all[0]->id, "constant");
    EXPECT_EQ(all[1]->id, "mesh-2d");
    EXPECT_EQ(all[2]->id, "fat-tree");
    for (const NetworkSpec *s : all) {
        EXPECT_TRUE(s->valid()) << s->id;
        EXPECT_FALSE(s->displayName.empty()) << s->id;
        EXPECT_FALSE(s->description.empty()) << s->id;
    }
}

TEST(NetworkRegistry, MakeNetworkDispatchesOnParams)
{
    Params p = Params::base();
    auto constant = makeNetwork(p);
    EXPECT_NE(dynamic_cast<Network *>(constant.get()), nullptr);
    EXPECT_EQ(constant->meanLatency(), p.netLatency);

    p.networkModel = "mesh-2d";
    auto mesh = makeNetwork(p);
    EXPECT_NE(dynamic_cast<MeshNetwork *>(mesh.get()), nullptr);
    EXPECT_EQ(mesh->nodes(), p.numNodes);

    p.networkModel = "fat-tree";
    auto tree = makeNetwork(p);
    EXPECT_NE(dynamic_cast<FatTreeNetwork *>(tree.get()), nullptr);

    p.networkModel = "token-ring";
    EXPECT_THROW(makeNetwork(p), std::runtime_error);
}

TEST(NetworkRegistry, RemoteFetchLatencyMatchesTable2ForConstant)
{
    // The model-derived path must reproduce the historical hardcoded
    // formula exactly under the default (constant) model: Table 2's
    // 376-cycle uncontended remote fetch.
    Params p = Params::base();
    EXPECT_EQ(remoteFetchLatency(p), p.remoteFetch());
    EXPECT_EQ(remoteFetchLatency(p), 376u);
    // Under a topology the wire term becomes the mean pairwise
    // latency instead of the flat netLatency.
    p.networkModel = "mesh-2d";
    const Tick mesh_mean = makeNetwork(p)->meanLatency();
    EXPECT_EQ(remoteFetchLatency(p), p.remoteFetch(mesh_mean));
    EXPECT_NE(remoteFetchLatency(p), 376u);
}

TEST(NetworkRegistry, ValidateRejectsUnEmbeddableGeometry)
{
    Params p = Params::base();
    p.networkModel = "mesh-2d";
    p.numNodes = 7; // prime: no rectangular embedding
    EXPECT_THROW(p.validate(), std::logic_error);
    p.numNodes = 8;
    EXPECT_NO_THROW(p.validate());

    p.networkModel = "fat-tree";
    p.numNodes = 12; // not a power of two
    EXPECT_THROW(p.validate(), std::logic_error);
    p.numNodes = 16;
    EXPECT_NO_THROW(p.validate());

    p.networkModel = "mesh-2d";
    p.numNodes = 8;
    p.hopLatency = 0;
    EXPECT_THROW(p.validate(), std::logic_error);
}

} // namespace rnuma
