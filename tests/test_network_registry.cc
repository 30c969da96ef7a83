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
#include <string>

#include "net/registry.hh"
#include "net/topology.hh"

namespace rnuma
{

TEST(NetworkRegistry, HasTheBuiltinsInOrder)
{
    auto all = NetworkRegistry::global().all();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0]->id, "constant");
    EXPECT_EQ(all[1]->id, "mesh-2d");
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

    // Any other id is unknown, the deleted fat-tree model included.
    for (const char *id : {"token-ring", "fat-tree", "Constant"}) {
        p.networkModel = id;
        try {
            makeNetwork(p);
            ADD_FAILURE() << id << " built a network";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string("unknown network '") + id + "'"),
                      std::string::npos)
                << e.what();
        }
    }
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

    p.hopLatency = 0;
    EXPECT_THROW(p.validate(), std::logic_error);
}

} // namespace rnuma
