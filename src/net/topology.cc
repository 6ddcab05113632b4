#include "net/topology.hh"

#include "common/log.hh"

namespace rsn::net {

void
Topology::addNode(FuId id)
{
    rsn_assert(!hasNode(id), "duplicate node %s", id.toString().c_str());
    nodes_.push_back(id);
}

void
Topology::addEdge(Edge e)
{
    edges_.push_back(std::move(e));
}

bool
Topology::hasNode(FuId id) const
{
    for (const auto &n : nodes_)
        if (n == id)
            return true;
    return false;
}

bool
Topology::hasEdge(FuId src, FuId dst) const
{
    for (const auto &e : edges_)
        if (e.src == src && e.dst == dst)
            return true;
    return false;
}

Bytes
Topology::aggregateBandwidth(FuId id) const
{
    Bytes bw = 0;
    for (const auto &e : edges_) {
        if (e.src == id)
            bw += e.bytes_per_tick;
        if (e.dst == id)
            bw += e.bytes_per_tick;
    }
    return bw;
}

void
Topology::validate() const
{
    for (const auto &e : edges_) {
        if (!hasNode(e.src))
            rsn_fatal("edge %s references missing source",
                      e.name().c_str());
        if (!hasNode(e.dst))
            rsn_fatal("edge %s references missing destination",
                      e.name().c_str());
        if (e.src == e.dst)
            rsn_fatal("self-loop on %s", e.src.toString().c_str());
        if (e.bytes_per_tick == 0)
            rsn_fatal("edge %s has zero width", e.name().c_str());
    }
    for (std::size_t i = 0; i < edges_.size(); ++i)
        for (std::size_t j = i + 1; j < edges_.size(); ++j)
            if (edges_[i].src == edges_[j].src &&
                edges_[i].dst == edges_[j].dst)
                rsn_fatal("duplicate edge %s", edges_[i].name().c_str());
}

std::string
Topology::toDot(const std::string &graph_name) const
{
    std::string s = "digraph " + graph_name + " {\n  rankdir=LR;\n";
    for (const auto &n : nodes_)
        s += "  \"" + n.toString() + "\";\n";
    for (const auto &e : edges_) {
        s += "  \"" + e.src.toString() + "\" -> \"" + e.dst.toString() +
             "\" [label=\"" +
             std::to_string(e.bytes_per_tick) + "B/t\"];\n";
    }
    s += "}\n";
    return s;
}

} // namespace rsn::net
