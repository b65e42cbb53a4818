#include "sptree/tree_view.hpp"

#include "core/assert.hpp"
#include "core/graph_algo.hpp"

namespace ssno {

std::vector<NodeId> TreeView::childrenOf(NodeId p) const {
  std::vector<NodeId> kids;
  const Graph& g = treeGraph();
  for (NodeId q : g.neighbors(p))
    if (q != g.root() && parentOf(q) == p) kids.push_back(q);
  return kids;
}

Port TreeView::parentPortOf(NodeId p) const {
  const NodeId a = parentOf(p);
  return a == kNoNode ? kNoPort : treeGraph().portOf(p, a);
}

TreeRole TreeView::roleOf(NodeId p) const {
  const Graph& g = treeGraph();
  if (p == g.root()) return TreeRole::kRoot;
  // Allocation-free: probe for any child instead of materializing the
  // child list (roleOf sits on STNO's NodeLabel execution path).
  for (NodeId q : g.neighbors(p))
    if (q != g.root() && parentOf(q) == p) return TreeRole::kInternal;
  return TreeRole::kLeaf;
}

FixedTree::FixedTree(const Graph& graph, std::vector<NodeId> parent)
    : graph_(&graph), parent_(std::move(parent)) {
  SSNO_EXPECTS(isSpanningTree(graph, parent_));
}

}  // namespace ssno
