// Rooted undirected communication graphs (paper §2.1.1).
//
// A distributed system S = (V, E): V a set of processors, E bidirectional
// communication links.  All processors except the distinguished root are
// anonymous; processors refer to incident links only through local port
// numbers 0..Δp−1.  The Graph is immutable after construction; topology
// builders live in this header as static factories.
//
// Storage is CSR (compressed sparse row): one flat offsets array plus one
// flat neighbor array, so neighbors(p) is a contiguous span and the whole
// structure is a few cache-friendly allocations regardless of n.  A
// per-slot reverse-port array, filled in the same CSR pass, answers
// backPort(p, l) — the port at the far end of p's link l — in one load;
// portOf(p, q) scans p's contiguous row.  There is no hash table, so
// building and copying a Graph is a handful of flat array copies.  Port
// numbering is edge-list insertion order.
#ifndef SSNO_CORE_GRAPH_HPP
#define SSNO_CORE_GRAPH_HPP

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace ssno {

class Graph {
 public:
  /// Builds a graph from an explicit edge list over nodes 0..n-1.
  /// Duplicate edges and self-loops are rejected.  `root` defaults to 0.
  Graph(int n, const std::vector<std::pair<NodeId, NodeId>>& edges,
        NodeId root = 0);

  [[nodiscard]] int nodeCount() const {
    return static_cast<int>(offsets_.size()) - 1;
  }
  [[nodiscard]] int edgeCount() const { return edge_count_; }
  [[nodiscard]] NodeId root() const { return root_; }

  /// Neighbors of p in port order (a contiguous CSR slice).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId p) const {
    const std::size_t begin = offsets_[static_cast<std::size_t>(p)];
    const std::size_t end = offsets_[static_cast<std::size_t>(p) + 1];
    return {nbrs_.data() + begin, end - begin};
  }

  [[nodiscard]] int degree(NodeId p) const {
    return static_cast<int>(offsets_[static_cast<std::size_t>(p) + 1] -
                            offsets_[static_cast<std::size_t>(p)]);
  }

  /// Maximum degree Δ.
  [[nodiscard]] int maxDegree() const { return max_degree_; }

  /// The neighbor reached from p through local port `port`.
  [[nodiscard]] NodeId neighborAt(NodeId p, Port port) const {
    return nbrs_[offsets_[static_cast<std::size_t>(p)] +
                 static_cast<std::size_t>(port)];
  }

  /// Flat index of p's port 0 in the CSR layout: (p, l) maps to slot
  /// portBase(p) + l.  This is the indexing scheme shared by all SoA
  /// per-port state columns (core/state_arena, Orientation::label).
  [[nodiscard]] std::size_t portBase(NodeId p) const {
    return offsets_[static_cast<std::size_t>(p)];
  }

  /// Total number of (node, port) slots, i.e. 2m.
  [[nodiscard]] std::size_t portSlotCount() const { return nbrs_.size(); }

  /// The port of neighborAt(p, l) whose link leads back to p:
  /// neighborAt(neighborAt(p, l), backPort(p, l)) == p.  O(1), one load.
  [[nodiscard]] Port backPort(NodeId p, Port l) const {
    return rev_[offsets_[static_cast<std::size_t>(p)] +
                static_cast<std::size_t>(l)];
  }

  /// The local port of p whose link leads to q; kNoPort if not adjacent.
  /// O(Δp): a scan of p's contiguous row.  Callers that already hold the
  /// port at the other end use backPort instead.
  [[nodiscard]] Port portOf(NodeId p, NodeId q) const;

  [[nodiscard]] bool adjacent(NodeId p, NodeId q) const {
    return portOf(p, q) != kNoPort;
  }

  [[nodiscard]] bool isConnected() const;

  /// ---- Topology builders ----------------------------------------------
  /// All builders produce connected graphs rooted at node 0.
  static Graph ring(int n);
  static Graph path(int n);
  static Graph star(int n);  ///< node 0 = hub = root
  static Graph complete(int n);
  static Graph grid(int rows, int cols);
  static Graph torus(int rows, int cols);  ///< requires rows,cols >= 3
  static Graph hypercube(int dim);
  /// Complete graph on `cliqueSize` nodes with a path of `tailLen` hanging
  /// off it (the classic "lollipop"); root in the clique.
  static Graph lollipop(int cliqueSize, int tailLen);
  /// Balanced k-ary tree with n nodes (BFS numbering).
  static Graph kAryTree(int n, int k);
  /// Spine of length `spine`, each spine node with `legs` pendant leaves.
  static Graph caterpillar(int spine, int legs);
  /// Uniform random labelled tree (random Prüfer sequence).
  static Graph randomTree(int n, Rng& rng);
  /// Connected G(n, p): a random spanning tree plus independent extra edges.
  static Graph randomConnected(int n, double extraEdgeProb, Rng& rng);

  /// The 5-node example of Figures 3.1.1 (r, a, b, c, d).  Node ids:
  /// r=0, a=1, b=2, c=3, d=4; edges r-b, r-a, b-d, d-c, c-a ordered so the
  /// DFS in port order reproduces the figure's visit sequence
  /// r, b, d, c, (backtrack) then a.
  static Graph figure311();

  /// The 5-node cycle of Figure 2.2.1 used to illustrate the chordal
  /// labeling (ring of 5 with one chord).
  static Graph figure221();

 private:
  std::vector<std::size_t> offsets_;  // n+1 entries
  std::vector<NodeId> nbrs_;          // 2m entries, port order per node
  std::vector<Port> rev_;             // 2m entries, backPort per slot
  NodeId root_ = 0;
  int edge_count_ = 0;
  int max_degree_ = 0;
};

}  // namespace ssno

#endif  // SSNO_CORE_GRAPH_HPP
