// Convergence-property analysis on an explicit illegitimate sub-digraph.
//
// Shared by the sequential ModelChecker and the parallel src/mc
// explorer.  The graph is compressed sparse row (CSR): states are dense
// local ids 0..stateCount()-1, state v's out-edges are
// edges[offsets[v] .. offsets[v+1]) in the order the builder enumerated
// its moves, each edge carrying the acting (node, action) pair, and a
// flat arena holds one multi-word enabled-pair mask per state.
// Convergence holds iff the illegitimate region admits no infinite
// execution the daemon model allows:
//
//   * Fairness::kNone — ANY cycle is a violation (an unfair daemon may
//     follow it forever), i.e. the region must be acyclic;
//   * kWeaklyFair / kStronglyFair — only *fair-feasible* cycles count,
//     checked SCC-wise (Emerson–Lei style): an infinite execution
//     eventually stays inside one SCC, and a fair infinite execution
//     inside an SCC exists iff no protected (processor, action) pair —
//     enabled at every SCC configuration (weak) or at some (strong) —
//     fails to act on an internal transition.
//
// findFairCycle runs an iterative Tarjan and evaluates each SCC as it
// is popped; it stops at the first violating SCC in completion order
// and returns that SCC's largest local id, or -1 when convergence
// holds.  Whether some SCC violates does not depend on the labelling,
// but WHICH state is returned does: callers that need a canonical
// counterexample relabel the graph in a canonical order first
// (relabeled(), e.g. by state key) and run findFairCycle again.
#ifndef SSNO_MC_PROPERTIES_HPP
#define SSNO_MC_PROPERTIES_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/protocol.hpp"

namespace ssno::mc {

/// Renders the protocol's current configuration, one "  node q: ..."
/// line per processor — the counterexample format shared by the
/// sequential ModelChecker and the parallel explorer (equivalence
/// tests compare these messages across engines).
[[nodiscard]] std::string describeConfiguration(const Protocol& p);

struct TransitionGraph {
  struct Edge {
    std::uint32_t to;
    std::uint32_t actorPair;  // node * actionCount + action
  };
  /// offsets.size() == stateCount() + 1; offsets.front() == 0.
  std::vector<std::uint64_t> offsets{0};
  std::vector<Edge> edges;

  /// Per-state enabled-(node, action)-pair masks, multi-word: state i's
  /// mask occupies words [i*maskWords, (i+1)*maskWords) of enabledMask
  /// (see core/bitwords.hpp mask-arena helpers).  Empty (never read)
  /// for Fairness::kNone.
  int maskWords = 1;
  std::vector<std::uint64_t> enabledMask;

  [[nodiscard]] std::size_t stateCount() const { return offsets.size() - 1; }
  [[nodiscard]] std::span<const Edge> edgesOf(std::size_t v) const {
    return {edges.data() + offsets[v],
            static_cast<std::size_t>(offsets[v + 1] - offsets[v])};
  }

  /// Appends state stateCount(); its edges follow through addEdge.
  void addState() { offsets.push_back(edges.size()); }
  /// Appends an edge out of the most recently added state.
  void addEdge(std::uint32_t to, std::uint32_t actorPair) {
    edges.push_back({to, actorPair});
    offsets.back() = edges.size();
  }

  /// Sizes the mask arena for `states` states of `pairBits` pairs each.
  void initMasks(std::size_t states, std::size_t pairBits);
  /// Pointer to state i's mask words (mutable for the builder).
  [[nodiscard]] std::uint64_t* maskOf(std::size_t i) {
    return enabledMask.data() + i * static_cast<std::size_t>(maskWords);
  }
  [[nodiscard]] const std::uint64_t* maskOf(std::size_t i) const {
    return enabledMask.data() + i * static_cast<std::size_t>(maskWords);
  }
};

/// The same graph under the labelling new id i = old id order[i]
/// (`order` is a permutation of the local ids).  Each state keeps its
/// edge order and its mask.
[[nodiscard]] TransitionGraph relabeled(const TransitionGraph& g,
                                        std::span<const std::uint32_t> order);

[[nodiscard]] std::int64_t findFairCycle(const TransitionGraph& g,
                                         Fairness fairness);

}  // namespace ssno::mc

#endif  // SSNO_MC_PROPERTIES_HPP
