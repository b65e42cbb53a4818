// TreeView — the rooted-spanning-tree interface STNO reads.
//
// The paper's STNO assumes "an underlying protocol maintains a spanning
// tree of the rooted network" exposing, at each processor, its ancestor
// A_p and descendant set D_p, and a role classification root / internal /
// leaf.  Both the self-stabilizing BFS tree (bfs_tree.hpp) and fixed
// trees (e.g. a DFS tree extracted from the token circulation) implement
// this interface.
#ifndef SSNO_SPTREE_TREE_VIEW_HPP
#define SSNO_SPTREE_TREE_VIEW_HPP

#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace ssno {

enum class TreeRole { kRoot, kInternal, kLeaf };

class TreeView {
 public:
  virtual ~TreeView() = default;

  /// A_p: the processor's current parent (kNoNode for the root).
  [[nodiscard]] virtual NodeId parentOf(NodeId p) const = 0;

  /// p's port toward parentOf(p); kNoPort for the root.  The default
  /// scans p's adjacency row; trees that store the parent as a port
  /// return it directly.
  [[nodiscard]] virtual Port parentPortOf(NodeId p) const;

  /// D_p: processors that currently designate p as their parent, in p's
  /// port order (this ordering makes STNO's Distribute deterministic).
  [[nodiscard]] std::vector<NodeId> childrenOf(NodeId p) const;

  [[nodiscard]] TreeRole roleOf(NodeId p) const;

  [[nodiscard]] virtual const Graph& treeGraph() const = 0;
};

/// An immutable spanning tree given by a parent vector (parent[root] ==
/// kNoNode).  Used for STNO-on-a-fixed-tree experiments and for model
/// checking the orientation layer with the substrate held legitimate.
class FixedTree final : public TreeView {
 public:
  FixedTree(const Graph& graph, std::vector<NodeId> parent);

  [[nodiscard]] NodeId parentOf(NodeId p) const override {
    return parent_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const Graph& treeGraph() const override { return *graph_; }

  [[nodiscard]] const std::vector<NodeId>& parents() const { return parent_; }

 private:
  const Graph* graph_;
  std::vector<NodeId> parent_;
};

}  // namespace ssno

#endif  // SSNO_SPTREE_TREE_VIEW_HPP
