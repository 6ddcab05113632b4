/**
 * @file
 * Stream network topology: the static graph of FUs and edges.
 *
 * The RSN datapath is "a specialized circuit-switched network of stateful
 * FUs" (Sec. 3.1). The topology is decided at datapath-generation time
 * (Sec. 4.2: the "union" datapath over all model segments); programs then
 * trigger paths through it. This module owns the graph description, its
 * validation, and DOT export; the machine instantiates one sim::Stream
 * per edge.
 */

#ifndef RSN_NET_TOPOLOGY_HH
#define RSN_NET_TOPOLOGY_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace rsn::net {

/** One directed stream edge. */
struct Edge {
    FuId src;
    FuId dst;
    Bytes bytes_per_tick = 0;  ///< Link width.
    std::size_t depth = 2;     ///< FIFO depth in chunks.

    std::string name() const
    {
        return src.toString() + "->" + dst.toString();
    }
};

class Topology
{
  public:
    void addNode(FuId id);
    void addEdge(Edge e);

    const std::vector<FuId> &nodes() const { return nodes_; }
    const std::vector<Edge> &edges() const { return edges_; }

    bool hasNode(FuId id) const;
    bool hasEdge(FuId src, FuId dst) const;

    /** Aggregate bandwidth (in + out) of a node in bytes/tick. */
    Bytes aggregateBandwidth(FuId id) const;

    /**
     * Structural validation: edges reference existing nodes, no duplicate
     * edges, no self-loops. Fatal on violation.
     */
    void validate() const;

    /** Graphviz DOT rendering of the network. */
    std::string toDot(const std::string &graph_name = "rsn") const;

  private:
    std::vector<FuId> nodes_;
    std::vector<Edge> edges_;
};

} // namespace rsn::net

#endif // RSN_NET_TOPOLOGY_HH
