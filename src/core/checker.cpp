#include "core/checker.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "core/assert.hpp"
#include "core/bitwords.hpp"
#include "core/enabled_cache.hpp"
#include "core/scheduler.hpp"
#include "core/sync_engine.hpp"
#include "mc/properties.hpp"

namespace ssno {
namespace {

/// Mixed-radix index <-> per-node code vector, with delta decoding:
/// decodeDelta rewrites only the nodes whose code changed since the
/// last decode, so the protocol's dirty set (and the EnabledCache fed
/// from it) stays proportional to the diff.  decodeInto is the naive
/// full decode (invalidates every guard), kept for setNaiveExpansion.
class ConfigIndexer {
 public:
  explicit ConfigIndexer(const Protocol& p) {
    const auto n = static_cast<std::size_t>(p.graph().nodeCount());
    radices_.reserve(n);
    weights_.reserve(n);
    total_ = 1;
    overflow_ = false;
    for (NodeId q = 0; q < p.graph().nodeCount(); ++q) {
      const std::uint64_t r = p.localStateCount(q);
      SSNO_EXPECTS(r >= 1);
      radices_.push_back(r);
      weights_.push_back(total_);  // product of radices before q
      if (total_ > UINT64_MAX / r) overflow_ = true;
      if (!overflow_) total_ *= r;
    }
    codes_.resize(n);
  }

  [[nodiscard]] bool overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Code of node q in the most recently decoded index.
  [[nodiscard]] std::uint64_t code(NodeId q) const {
    return codes_[static_cast<std::size_t>(q)];
  }

  /// Index of the configuration that differs from `index` only at q
  /// (exact in mod-2^64 arithmetic since total() fits 64 bits) — the
  /// O(1) replacement for re-encoding all n nodes per successor.
  [[nodiscard]] std::uint64_t successorIndex(std::uint64_t index, NodeId q,
                                             std::uint64_t oldCode,
                                             std::uint64_t newCode) const {
    return index + (newCode - oldCode) * weights_[static_cast<std::size_t>(q)];
  }

  void decodeInto(Protocol& p, std::uint64_t index) {
    codesOf(index);
    p.decodeConfiguration(codes_);
    prev_ = codes_;
  }

  void decodeDelta(Protocol& p, std::uint64_t index) {
    codesOf(index);
    p.decodeConfigurationDelta(codes_, prev_);
  }

  [[nodiscard]] std::uint64_t encodeFrom(const Protocol& p) const {
    std::uint64_t index = 0;
    for (std::size_t q = radices_.size(); q-- > 0;) {
      index = index * radices_[q] + p.encodeNode(static_cast<NodeId>(q));
    }
    return index;
  }

 private:
  void codesOf(std::uint64_t index) {
    for (std::size_t q = 0; q < radices_.size(); ++q) {
      codes_[q] = index % radices_[q];
      index /= radices_[q];
    }
  }

  std::vector<std::uint64_t> radices_;
  std::vector<std::uint64_t> weights_;
  std::vector<std::uint64_t> codes_;  // last decoded index's codes
  std::vector<std::uint64_t> prev_;   // delta-tracking state
  std::uint64_t total_ = 1;
  bool overflow_ = false;
};

std::string describeConfig(const Protocol& p) {
  return mc::describeConfiguration(p);
}

}  // namespace

CheckResult ModelChecker::verifyFullSpace(std::uint64_t maxConfigs,
                                          Fairness fairness) {
  CheckResult res;
  if (sync_ && fairness != Fairness::kNone) {
    res.failure =
        "fairness-aware modes are not supported under synchronous steps";
    return res;
  }
  ConfigIndexer ix(protocol_);
  if (ix.overflow() || ix.total() > maxConfigs) {
    res.failure = "state space too large for exhaustive check";
    return res;
  }
  const int actions = protocol_.actionCount();
  const std::uint64_t total = ix.total();

  EnabledCache cache(protocol_);
  cache.setForceNaive(naive_);

  std::vector<std::uint8_t> isLegit(total, 0);
  for (std::uint64_t c = 0; c < total; ++c) {
    if (naive_)
      ix.decodeInto(protocol_, c);
    else
      ix.decodeDelta(protocol_, c);
    isLegit[c] = legit_() ? 1 : 0;
  }

  /// Decodes c and snapshots the enabled set as (node, mask) pairs (the
  /// cache's own view is only valid until the next mutation).
  NodeMasks expandBuf;
  auto expand = [&](std::uint64_t c) -> const NodeMasks& {
    if (naive_)
      ix.decodeInto(protocol_, c);
    else
      ix.decodeDelta(protocol_, c);
    expandBuf.clear();
    cache.refreshView().appendNodeMasks(expandBuf);
    return expandBuf;
  };
  /// Successor of the currently decoded c by move m; restores c before
  /// returning.  (A statement writes only its own processor's
  /// variables, so restoring the acted node alone suffices.)
  auto successorOf = [&](std::uint64_t c, const Move& m) {
    const std::uint64_t oldCode = ix.code(m.node);
    protocol_.execute(m.node, m.action);
    const std::uint64_t s =
        naive_ ? ix.encodeFrom(protocol_)
               : ix.successorIndex(c, m.node, oldCode,
                                   protocol_.encodeNode(m.node));
    protocol_.decodeNode(m.node, oldCode);
    return s;
  };
  // Synchronous-successor machinery: a transition executes one
  // simultaneous move set (every enabled processor acts) through the
  // columnar engine — batched snapshot/restore of the acting set, one
  // deferred dirty pass — then patches the mixed-radix index once per
  // actor and rolls the acting set back in place.
  SimultaneousEngine engine(protocol_);
  std::vector<Move> selScratch;
  constexpr int kSyncTag = -1;  // no single actor pair for a sync step
  auto forEachSuccessor = [&](std::uint64_t c, const NodeMasks& enabled,
                              auto&& fn /*(successor, actorPairTag) ->
                                          bool: keep enumerating?*/) {
    bool go = true;
    if (!sync_) {
      forEachMove(enabled, [&](const Move& m) {
        if (!go) return;
        go = fn(successorOf(c, m), m.node * actions + m.action);
      });
      return;
    }
    forEachSimultaneousSelection(
        enabled, selScratch, [&](std::span<const Move> set) -> bool {
          engine.execute(set);
          std::uint64_t s;
          if (naive_) {
            s = ix.encodeFrom(protocol_);
          } else {
            s = c;
            for (const Move& m : set)
              s = ix.successorIndex(s, m.node, ix.code(m.node),
                                    protocol_.encodeNode(m.node));
          }
          engine.undo();
          go = fn(s, kSyncTag);
          return go;
        });
  };
  auto successorsVec = [&](std::uint64_t c) {
    std::vector<std::pair<std::uint64_t, int>> succ;  // (config, actor)
    forEachSuccessor(c, expand(c), [&](std::uint64_t s, int tag) {
      succ.emplace_back(s, tag);
      return true;
    });
    return succ;
  };

  // Pass 1: deadlock + closure; assign dense ids to illegitimate configs.
  std::vector<std::uint64_t> illegitIds(total, UINT64_MAX);
  std::uint64_t illegitCount = 0;
  for (std::uint64_t c = 0; c < total; ++c) {
    ++res.configsExplored;
    const NodeMasks& enabled = expand(c);
    if (isLegit[c]) {
      bool closed = true;
      forEachSuccessor(c, enabled, [&](std::uint64_t s, int) {
        if (!isLegit[s]) {
          closed = false;
          return false;  // violation found: stop enumerating
        }
        return true;
      });
      if (!closed) {
        ix.decodeDelta(protocol_, c);
        res.failure = "closure violated; legitimate configuration:\n" +
                      describeConfig(protocol_);
        return res;
      }
      continue;
    }
    if (enabled.empty()) {
      res.failure = "illegitimate terminal (deadlocked) configuration:\n" +
                    describeConfig(protocol_);
      return res;
    }
    illegitIds[c] = illegitCount++;
  }

  if (fairness != Fairness::kNone) {
    // Materialize the illegitimate sub-digraph with actors and
    // enabled-pair masks (read off the expansion snapshot), then look
    // for a fair-feasible cycle.  Pair masks are multi-word, so there
    // is no node·actions <= 64 cap.
    mc::TransitionGraph g;
    g.initMasks(illegitCount,
                static_cast<std::size_t>(protocol_.graph().nodeCount()) *
                    static_cast<std::size_t>(actions));
    std::vector<std::uint64_t> localToGlobal(illegitCount);
    for (std::uint64_t c = 0; c < total; ++c) {
      if (isLegit[c]) continue;
      const std::uint64_t id = illegitIds[c];  // == g.stateCount()
      localToGlobal[id] = c;
      g.addState();
      forEachMove(expand(c), [&](const Move& m) {
        const auto pair =
            static_cast<std::uint32_t>(m.node * actions + m.action);
        bits::maskSet(g.maskOf(id), pair);
        const std::uint64_t s = successorOf(c, m);
        if (!isLegit[s])
          g.addEdge(static_cast<std::uint32_t>(illegitIds[s]), pair);
      });
    }
    const std::int64_t bad = mc::findFairCycle(g, fairness);
    if (bad >= 0) {
      ix.decodeDelta(protocol_,
                     localToGlobal[static_cast<std::size_t>(bad)]);
      res.failure =
          "convergence violated: fair-feasible cycle through "
          "illegitimate configuration:\n" +
          describeConfig(protocol_);
      return res;
    }
    res.ok = true;
    return res;
  }

  // Strict mode: the illegitimate sub-digraph must be acyclic.
  // (0=white, 1=gray, 2=black; successors recomputed on demand to keep
  // memory at one byte per configuration.)
  std::vector<std::uint8_t> color(total, 0);
  std::vector<std::uint64_t> stack;
  std::vector<std::size_t> stackPos;
  std::vector<std::vector<std::pair<std::uint64_t, int>>> stackSucc;
  for (std::uint64_t start = 0; start < total; ++start) {
    if (isLegit[start] || color[start] != 0) continue;
    stack.assign(1, start);
    stackSucc.assign(1, successorsVec(start));
    stackPos.assign(1, 0);
    color[start] = 1;
    while (!stack.empty()) {
      bool descended = false;
      while (stackPos.back() < stackSucc.back().size()) {
        const std::uint64_t next = stackSucc.back()[stackPos.back()++].first;
        if (isLegit[next]) continue;
        if (color[next] == 1) {
          ix.decodeDelta(protocol_, next);
          res.failure =
              "convergence violated: cycle through illegitimate "
              "configuration:\n" +
              describeConfig(protocol_);
          return res;
        }
        if (color[next] == 0) {
          color[next] = 1;
          stack.push_back(next);
          stackSucc.push_back(successorsVec(next));
          stackPos.push_back(0);
          descended = true;
          break;
        }
      }
      if (!descended && stackPos.back() >= stackSucc.back().size()) {
        color[stack.back()] = 2;
        stack.pop_back();
        stackSucc.pop_back();
        stackPos.pop_back();
      }
    }
  }
  res.ok = true;
  return res;
}

CheckResult ModelChecker::verifyReachable(
    const std::vector<std::vector<std::uint64_t>>& seeds,
    std::uint64_t maxConfigs, Fairness fairness) {
  CheckResult res;
  if (sync_ && fairness != Fairness::kNone) {
    res.failure =
        "fairness-aware modes are not supported under synchronous steps";
    return res;
  }
  const int actions = protocol_.actionCount();
  const std::size_t pairBits =
      static_cast<std::size_t>(protocol_.graph().nodeCount()) *
      static_cast<std::size_t>(actions);
  const std::size_t maskWords =
      fairness != Fairness::kNone ? std::max<std::size_t>(
                                        1, bits::wordsFor(pairBits))
                                  : 1;
  struct VecHash {
    std::size_t operator()(const std::vector<std::uint64_t>& v) const {
      std::uint64_t h = 0xCBF29CE484222325ULL;
      for (std::uint64_t x : v) {
        h ^= x;
        h *= 0x100000001B3ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<std::vector<std::uint64_t>, int, VecHash> id;
  std::vector<std::vector<std::uint64_t>> configs;
  std::vector<std::uint8_t> isLegit;
  // Per-config multi-word enabled-pair masks, flat arena (filled at
  // expansion; maskWords words per config).
  std::vector<std::uint64_t> enabledMask;

  EnabledCache cache(protocol_);
  cache.setForceNaive(naive_);
  std::vector<std::uint64_t> cur;  // codes currently decoded in protocol_
  NodeMasks enabledBuf;            // stable snapshot of each refresh
  SimultaneousEngine engine(protocol_);  // synchronous move-set execution
  std::vector<Move> selScratch;
  constexpr int kSyncTag = -1;

  /// Interns the configuration the protocol currently holds (legitimacy
  /// is evaluated in place — no re-decode).
  auto internCurrent = [&]() -> int {
    auto [it, inserted] = id.try_emplace(protocol_.encodeConfiguration(),
                                         static_cast<int>(configs.size()));
    if (inserted) {
      configs.push_back(it->first);
      isLegit.push_back(legit_() ? 1 : 0);
      enabledMask.resize(enabledMask.size() + maskWords, 0);
    }
    return it->second;
  };

  struct OutEdge {
    int to;
    int actorPair;
  };
  std::vector<std::vector<OutEdge>> adj;
  std::vector<std::uint8_t> explored;

  std::vector<int> frontier;
  for (const auto& s : seeds) {
    protocol_.decodeConfigurationDelta(s, cur);
    frontier.push_back(internCurrent());
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const int c = frontier[head];
    while (static_cast<int>(adj.size()) <= c) {
      adj.emplace_back();
      explored.push_back(0);
    }
    if (explored[static_cast<std::size_t>(c)]) continue;
    explored[static_cast<std::size_t>(c)] = 1;
    if (naive_) {
      protocol_.decodeConfiguration(configs[static_cast<std::size_t>(c)]);
      cur = configs[static_cast<std::size_t>(c)];
    } else {
      protocol_.decodeConfigurationDelta(configs[static_cast<std::size_t>(c)],
                                         cur);
    }
    enabledBuf.clear();
    cache.refreshView().appendNodeMasks(enabledBuf);
    if (enabledBuf.empty() && !isLegit[static_cast<std::size_t>(c)]) {
      res.failure = "illegitimate terminal (deadlocked) configuration:\n" +
                    describeConfig(protocol_);
      return res;
    }
    if (fairness != Fairness::kNone) {
      std::uint64_t* mask =
          enabledMask.data() + static_cast<std::size_t>(c) * maskWords;
      forEachMove(enabledBuf, [&](const Move& m) {
        bits::maskSet(mask,
                      static_cast<std::size_t>(m.node * actions + m.action));
      });
    }
    bool failed = false;
    auto visitChild = [&](int s, int pair) {
      // Called with the protocol restored to c (cur still describes c).
      if (configs.size() > maxConfigs) {
        res.failure = "reachable space exceeded maxConfigs";
        failed = true;
        return;
      }
      if (isLegit[static_cast<std::size_t>(c)] &&
          !isLegit[static_cast<std::size_t>(s)]) {
        res.failure = "closure violated; legitimate configuration:\n" +
                      describeConfig(protocol_);
        failed = true;
        return;
      }
      adj[static_cast<std::size_t>(c)].push_back({s, pair});
      frontier.push_back(s);
    };
    if (sync_) {
      // One successor per simultaneous selection, executed in place by
      // the columnar engine and rolled back via its batched restore.
      forEachSimultaneousSelection(
          enabledBuf, selScratch, [&](std::span<const Move> set) {
            if (failed) return;
            engine.execute(set);
            const int s = internCurrent();
            engine.undo();
            visitChild(s, kSyncTag);
          });
    } else {
      forEachMove(enabledBuf, [&](const Move& m) {
        if (failed) return;
        protocol_.execute(m.node, m.action);
        const int s = internCurrent();
        // Only m.node's variables differ from c, so restoring that one
        // node returns to c for the next move (cur still describes c).
        protocol_.decodeNode(
            m.node,
            configs[static_cast<std::size_t>(c)][static_cast<std::size_t>(
                m.node)]);
        visitChild(s, m.node * actions + m.action);
      });
    }
    if (failed) return res;
  }
  res.configsExplored = configs.size();
  const int total = static_cast<int>(configs.size());

  if (fairness != Fairness::kNone) {
    // Project to the illegitimate sub-digraph.
    std::vector<int> localId(static_cast<std::size_t>(total), -1);
    mc::TransitionGraph g;
    std::vector<int> localToGlobal;
    for (int c = 0; c < total; ++c) {
      if (isLegit[static_cast<std::size_t>(c)]) continue;
      localId[static_cast<std::size_t>(c)] =
          static_cast<int>(localToGlobal.size());
      localToGlobal.push_back(c);
    }
    g.initMasks(localToGlobal.size(), pairBits);
    for (int c = 0; c < total; ++c) {
      const int lc = localId[static_cast<std::size_t>(c)];  // == stateCount
      if (lc < 0) continue;
      g.addState();
      std::copy_n(enabledMask.data() + static_cast<std::size_t>(c) * maskWords,
                  maskWords, g.maskOf(static_cast<std::size_t>(lc)));
      for (const auto& e : adj[static_cast<std::size_t>(c)]) {
        const int lt = localId[static_cast<std::size_t>(e.to)];
        if (lt >= 0)
          g.addEdge(static_cast<std::uint32_t>(lt),
                    static_cast<std::uint32_t>(e.actorPair));
      }
    }
    const std::int64_t bad = mc::findFairCycle(g, fairness);
    if (bad >= 0) {
      protocol_.decodeConfigurationDelta(
          configs[static_cast<std::size_t>(
              localToGlobal[static_cast<std::size_t>(bad)])],
          cur);
      res.failure =
          "convergence violated: fair-feasible cycle through "
          "illegitimate configuration:\n" +
          describeConfig(protocol_);
      return res;
    }
    res.ok = true;
    return res;
  }

  // Strict mode: cycle detection on the illegitimate subgraph.
  std::vector<std::uint8_t> color(static_cast<std::size_t>(total), 0);
  std::vector<int> stack, pos;
  for (int start = 0; start < total; ++start) {
    if (isLegit[static_cast<std::size_t>(start)] ||
        color[static_cast<std::size_t>(start)] != 0)
      continue;
    stack.assign(1, start);
    pos.assign(1, 0);
    color[static_cast<std::size_t>(start)] = 1;
    while (!stack.empty()) {
      const int curState = stack.back();
      const auto& succ = adj[static_cast<std::size_t>(curState)];
      bool descended = false;
      while (pos.back() < static_cast<int>(succ.size())) {
        const int next = succ[static_cast<std::size_t>(pos.back()++)].to;
        if (isLegit[static_cast<std::size_t>(next)]) continue;
        if (color[static_cast<std::size_t>(next)] == 1) {
          protocol_.decodeConfigurationDelta(
              configs[static_cast<std::size_t>(next)], cur);
          res.failure =
              "convergence violated: cycle through illegitimate "
              "configuration:\n" +
              describeConfig(protocol_);
          return res;
        }
        if (color[static_cast<std::size_t>(next)] == 0) {
          color[static_cast<std::size_t>(next)] = 1;
          stack.push_back(next);
          pos.push_back(0);
          descended = true;
          break;
        }
      }
      if (!descended && pos.back() >= static_cast<int>(succ.size())) {
        color[stack.back()] = 2;
        stack.pop_back();
        pos.pop_back();
      }
    }
  }
  res.ok = true;
  return res;
}

CheckResult ModelChecker::monteCarlo(Daemon& daemon, Rng& rng, int trials,
                                     StepCount maxMoves,
                                     StepCount closureMoves) {
  CheckResult res;
  for (int t = 0; t < trials; ++t) {
    protocol_.randomize(rng);
    Simulator sim(protocol_, daemon, rng);
    const RunStats stats = sim.runUntil([this] { return legit_(); }, maxMoves);
    ++res.configsExplored;
    if (!stats.converged) {
      std::ostringstream msg;
      msg << "trial " << t << " failed to converge within " << maxMoves
          << " moves under " << daemon.name() << " daemon; configuration:\n"
          << describeConfig(protocol_);
      res.failure = msg.str();
      return res;
    }
    // Closure spot check: legitimacy persists.
    StepCount done = 0;
    while (done < closureMoves) {
      const std::vector<Move>& executed = sim.stepOnce();
      if (executed.empty()) break;
      done += static_cast<StepCount>(executed.size());
      if (!legit_()) {
        std::ostringstream msg;
        msg << "trial " << t << ": closure violated after convergence under "
            << daemon.name() << " daemon; configuration:\n"
            << describeConfig(protocol_);
        res.failure = msg.str();
        return res;
      }
    }
  }
  res.ok = true;
  return res;
}

}  // namespace ssno
