#include "mc/properties.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/assert.hpp"
#include "core/bitwords.hpp"

namespace ssno::mc {

std::string describeConfiguration(const Protocol& p) {
  std::ostringstream out;
  for (NodeId q = 0; q < p.graph().nodeCount(); ++q)
    out << "  node " << q << ": " << p.dumpNode(q) << '\n';
  return out.str();
}

void TransitionGraph::initMasks(std::size_t states, std::size_t pairBits) {
  maskWords = static_cast<int>(std::max<std::size_t>(
      1, bits::wordsFor(pairBits)));
  enabledMask.assign(states * static_cast<std::size_t>(maskWords), 0);
}

TransitionGraph relabeled(const TransitionGraph& g,
                          std::span<const std::uint32_t> order) {
  const std::size_t n = g.stateCount();
  SSNO_EXPECTS(order.size() == n);
  std::vector<std::uint32_t> newId(n);
  for (std::size_t i = 0; i < n; ++i)
    newId[order[i]] = static_cast<std::uint32_t>(i);
  TransitionGraph out;
  out.offsets.reserve(n + 1);
  out.edges.reserve(g.edges.size());
  const bool masks = !g.enabledMask.empty();
  const auto words = static_cast<std::size_t>(g.maskWords);
  out.maskWords = g.maskWords;
  if (masks) out.enabledMask.resize(n * words);
  for (std::size_t i = 0; i < n; ++i) {
    out.addState();
    for (const TransitionGraph::Edge& e : g.edgesOf(order[i]))
      out.addEdge(newId[e.to], e.actorPair);
    if (masks)
      std::copy_n(g.maskOf(order[i]), words, out.maskOf(i));
  }
  return out;
}

std::int64_t findFairCycle(const TransitionGraph& g, Fairness fairness) {
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  const std::size_t n = g.stateCount();
  SSNO_EXPECTS(n < kUnset);
  const bool useMasks = fairness != Fairness::kNone;
  const std::size_t words =
      useMasks ? static_cast<std::size_t>(g.maskWords) : 0;
  // Iterative Tarjan.  A visited state is on the Tarjan stack until its
  // SCC is popped and numbered.
  std::vector<std::uint32_t> index(n, kUnset);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint32_t> sccOf(n, kUnset);
  std::vector<std::uint32_t> tarjanStack;
  std::uint32_t nextIndex = 0;
  std::uint32_t sccCount = 0;
  // One aggregate buffer reused by every SCC: the pairs enabled at all
  // of its states, at some of them, and acting on internal edges.
  std::vector<std::uint64_t> agg(3 * words);
  std::uint64_t* enabledAll = agg.data();
  std::uint64_t* enabledAny = agg.data() + words;
  std::uint64_t* actsInside = agg.data() + 2 * words;

  // Numbers the SCC tarjanStack[from..) just completed and reports
  // whether it hosts a (fair-feasible) cycle.
  auto violates = [&](std::size_t from) {
    const std::uint32_t s = sccCount++;
    for (std::size_t i = from; i < tarjanStack.size(); ++i)
      sccOf[tarjanStack[i]] = s;
    std::fill(enabledAll, enabledAll + words, ~std::uint64_t{0});
    std::fill(enabledAny, enabledAny + words, 0);
    std::fill(actsInside, actsInside + words, 0);
    bool internalEdge = false;
    for (std::size_t i = from; i < tarjanStack.size(); ++i) {
      const std::uint32_t v = tarjanStack[i];
      if (useMasks) {
        bits::maskAndInto(enabledAll, g.maskOf(v), words);
        bits::maskOrInto(enabledAny, g.maskOf(v), words);
      }
      for (const TransitionGraph::Edge& e : g.edgesOf(v)) {
        if (sccOf[e.to] != s) continue;
        if (!useMasks) return true;
        internalEdge = true;
        bits::maskSet(actsInside, e.actorPair);
      }
    }
    if (!internalEdge) return false;
    // The SCC hosts a fair infinite execution iff no action that the
    // fairness notion protects is starved inside it.  (enabledAll is an
    // AND over configuration masks, so stray high bits vanish.)
    return bits::maskSubsetOf(
        fairness == Fairness::kStronglyFair ? enabledAny : enabledAll,
        actsInside, words);
  };

  struct Frame {
    std::uint32_t v;
    std::uint64_t next;  // cursor into g.edges
  };
  std::vector<Frame> callStack;
  auto visit = [&](std::uint32_t v) {
    index[v] = low[v] = nextIndex++;
    tarjanStack.push_back(v);
    callStack.push_back({v, g.offsets[v]});
  };
  for (std::size_t start = 0; start < n; ++start) {
    if (index[start] != kUnset) continue;
    visit(static_cast<std::uint32_t>(start));
    while (!callStack.empty()) {
      Frame& f = callStack.back();
      if (f.next < g.offsets[f.v + 1]) {
        const std::uint32_t w = g.edges[f.next++].to;
        if (index[w] == kUnset)
          visit(w);
        else if (sccOf[w] == kUnset)  // on the Tarjan stack
          low[f.v] = std::min(low[f.v], index[w]);
        continue;
      }
      const std::uint32_t v = f.v;
      callStack.pop_back();
      if (!callStack.empty()) {
        const std::uint32_t parent = callStack.back().v;
        low[parent] = std::min(low[parent], low[v]);
      }
      if (low[v] != index[v]) continue;
      std::size_t from = tarjanStack.size();
      while (tarjanStack[--from] != v) {
      }
      if (violates(from))
        return *std::max_element(tarjanStack.begin() +
                                     static_cast<std::ptrdiff_t>(from),
                                 tarjanStack.end());
      tarjanStack.resize(from);
    }
  }
  return -1;
}

}  // namespace ssno::mc
