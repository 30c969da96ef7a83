#include "net/registry.hh"

#include "common/logging.hh"
#include "net/topology.hh"

namespace rnuma
{

void
addBuiltins(NetworkRegistry &reg)
{
    NetworkSpec constant;
    constant.id = "constant";
    constant.displayName = "Constant";
    constant.description =
        "the paper's fixed point-to-point latency (netLatency); "
        "contention at the NIs only";
    constant.make = [](const Params &p) {
        return std::unique_ptr<NetworkModel>(std::make_unique<Network>(
            p.numNodes, p.netLatency, p.niOccupancy));
    };
    reg.add(std::move(constant));

    NetworkSpec mesh;
    mesh.id = "mesh-2d";
    mesh.displayName = "2D mesh";
    mesh.description =
        "dimension-ordered W x H mesh; hopLatency per hop, per-link "
        "contention (linkOccupancy)";
    mesh.make = [](const Params &p) {
        return std::unique_ptr<NetworkModel>(
            std::make_unique<MeshNetwork>(p.numNodes, p.hopLatency,
                                          p.linkOccupancy,
                                          p.niOccupancy));
    };
    reg.add(std::move(mesh));
}

Table
networkTable()
{
    Table t({"id", "name", "description"});
    for (const NetworkSpec *s : NetworkRegistry::global().all())
        t.addRow({s->id, s->displayName, s->description});
    return t;
}

const NetworkSpec &
networkSpec(const std::string &name)
{
    return NetworkRegistry::global().at(name);
}

const NetworkSpec *
findNetworkSpec(const std::string &name)
{
    return NetworkRegistry::global().find(name);
}

std::unique_ptr<NetworkModel>
makeNetwork(const Params &params)
{
    return networkSpec(params.networkModel).make(params);
}

Tick
remoteFetchLatency(const Params &params)
{
    // The constant model's mean is exactly netLatency, so this
    // reproduces Table 2's 376 cycles on the default configuration.
    return params.remoteFetch(makeNetwork(params)->meanLatency());
}

} // namespace rnuma
