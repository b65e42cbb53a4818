// Unit tests for the src/mc parallel model-checking engine: the
// bit-packed state codec, the sharded store, the spill tier, the
// explorer's verdicts/determinism on the toy protocols with known
// defects, and findFairCycle against a brute-force SCC reference.
#include "mc/explorer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>

#include "core/bitwords.hpp"
#include "core/graph.hpp"
#include "core/rng.hpp"
#include "dftc/dftc.hpp"
#include "mc/properties.hpp"
#include "mc/spill.hpp"
#include "mc/state_codec.hpp"
#include "mc/store.hpp"
#include "obs/metrics.hpp"
#include "toy_protocols.hpp"

namespace ssno::mc {
namespace {

TEST(StateCodec, RoundTripsConfigurations) {
  Dftc dftc(Graph::figure311());
  const StateCodec codec(dftc);
  std::vector<std::uint64_t> key(static_cast<std::size_t>(codec.words()));
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    dftc.randomize(rng);
    const std::vector<std::uint64_t> codes = dftc.encodeConfiguration();
    codec.encode(dftc, key.data());
    for (NodeId p = 0; p < dftc.graph().nodeCount(); ++p)
      EXPECT_EQ(codec.nodeCode(key.data(), p),
                codes[static_cast<std::size_t>(p)]);
    // Decode into a second instance and compare canonical encodings.
    Dftc other(Graph::figure311());
    codec.decode(key.data(), other);
    EXPECT_EQ(other.encodeConfiguration(), codes);
  }
}

TEST(StateCodec, PatchMatchesFullEncode) {
  Dftc dftc(Graph::path(3));
  const StateCodec codec(dftc);
  std::vector<std::uint64_t> key(static_cast<std::size_t>(codec.words()));
  std::vector<std::uint64_t> patched = key;
  Rng rng(9);
  dftc.randomize(rng);
  codec.encode(dftc, key.data());
  // Executing a move and patching the acted node must equal re-encoding.
  const std::vector<Move> moves = dftc.enabledMoves();
  ASSERT_FALSE(moves.empty());
  const Move m = moves.front();
  dftc.execute(m.node, m.action);
  patched.assign(key.begin(), key.end());
  codec.setNodeCode(patched.data(), m.node, dftc.encodeNode(m.node));
  std::vector<std::uint64_t> full(static_cast<std::size_t>(codec.words()));
  codec.encode(dftc, full.data());
  EXPECT_EQ(patched, full);
}

TEST(StateCodec, IndexEnumerationIsExhaustive) {
  ZeroProtocol proto(Graph::path(3), 3);
  const StateCodec codec(proto);
  ASSERT_TRUE(codec.indexable());
  EXPECT_EQ(codec.totalStates(), 27u);
  std::set<std::vector<std::uint64_t>> seen;
  std::vector<std::uint64_t> key(static_cast<std::size_t>(codec.words()));
  for (std::uint64_t i = 0; i < codec.totalStates(); ++i) {
    codec.indexToKey(i, key.data());
    seen.insert(key);
  }
  EXPECT_EQ(seen.size(), 27u);
}

TEST(StateStore, InternDeduplicatesAndKeepsMeta) {
  StateStore store(/*words=*/2, /*capacity=*/1024);
  const std::uint64_t keyA[2] = {42, 7};
  const std::uint64_t keyB[2] = {42, 8};
  auto never = [] { return false; };
  const auto a1 = store.intern(keyA, 1234, 0, never);
  EXPECT_TRUE(a1.inserted);
  const auto a2 = store.intern(keyA, 1234, 3, never);
  EXPECT_FALSE(a2.inserted);
  EXPECT_EQ(a2.id, a1.id);
  EXPECT_EQ(a2.depth, 0u);  // first-discovery depth sticks
  const auto b = store.intern(keyB, 1234, 0, [] { return true; });
  EXPECT_TRUE(b.inserted);
  EXPECT_NE(b.id, a1.id);
  EXPECT_TRUE(store.legit(b.id));
  EXPECT_FALSE(store.legit(a1.id));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find(keyA, 1234), a1.id);
}

TEST(StateStore, CanonicalMinParentWinsRegardlessOfOrder) {
  StateStore store(1, 1024);
  auto no = [] { return false; };
  const std::uint64_t parentSmall[1] = {5};
  const std::uint64_t parentBig[1] = {9};
  const std::uint64_t child[1] = {1};
  const auto ps = store.intern(parentSmall, 50, 0, no);
  const auto pb = store.intern(parentBig, 90, 0, no);
  // Discover the child from the big parent first, then the small one.
  (void)store.intern(child, 10, 1, no, parentBig, pb.id, 3);
  (void)store.intern(child, 10, 1, no, parentSmall, ps.id, 7);
  const std::uint64_t id = store.find(child, 10);
  EXPECT_EQ(store.parentOf(id), ps.id);
  EXPECT_EQ(store.parentMoveOf(id), 7u);
  // Reversed arrival order yields the same parent.
  StateStore other(1, 1024);
  const auto ps2 = other.intern(parentSmall, 50, 0, no);
  const auto pb2 = other.intern(parentBig, 90, 0, no);
  (void)other.intern(child, 10, 1, no, parentSmall, ps2.id, 7);
  (void)other.intern(child, 10, 1, no, parentBig, pb2.id, 3);
  EXPECT_EQ(other.parentOf(other.find(child, 10)), ps2.id);
}

TEST(FrontierSpill, SpillsAndDrainsAllIds) {
  FrontierSpill spill(/*memCapacity=*/8);
  std::vector<std::uint64_t> in;
  for (std::uint64_t i = 0; i < 100; ++i) in.push_back(i * 3);
  spill.append(in.data(), in.size());
  EXPECT_EQ(spill.size(), 100u);
  EXPECT_GE(spill.runsWritten(), 1u);
  std::multiset<std::uint64_t> drained;
  std::vector<std::uint64_t> chunk;
  while (spill.drainChunk(chunk, 7))
    drained.insert(chunk.begin(), chunk.end());
  EXPECT_EQ(drained.size(), 100u);
  EXPECT_EQ(drained, std::multiset<std::uint64_t>(in.begin(), in.end()));
}

ParallelChecker::Factory zeroFactory(int n, int domain) {
  return [n, domain] {
    return std::make_unique<ZeroProtocol>(Graph::path(n), domain);
  };
}

bool zeroLegit(Protocol& p) {
  return static_cast<ZeroProtocol&>(p).allZero();
}

TEST(ParallelChecker, AcceptsSelfStabilizingToy) {
  ParallelChecker pc(zeroFactory(3, 3), zeroLegit);
  Options opt;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 27u);
  EXPECT_TRUE(res.trace.empty());
}

TEST(ParallelChecker, DetectsIllegitimateCycleWithTrace) {
  ParallelChecker pc(
      [] { return std::make_unique<OscillateProtocol>(Graph::path(2)); },
      [](Protocol& p) {
        return static_cast<OscillateProtocol&>(p).allZero();
      });
  Options opt;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("cycle"), std::string::npos) << res.failure;
  EXPECT_FALSE(res.trace.empty());
}

TEST(ParallelChecker, DetectsDeadlock) {
  ParallelChecker pc(
      [] { return std::make_unique<StuckProtocol>(Graph::path(2)); },
      [](Protocol& p) { return static_cast<StuckProtocol&>(p).allZero(); });
  Options opt;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("terminal"), std::string::npos) << res.failure;
}

TEST(ParallelChecker, DetectsClosureViolation) {
  ParallelChecker pc(zeroFactory(2, 2), [](Protocol& p) {
    auto& z = static_cast<ZeroProtocol&>(p);
    return z.value(0) == 1 || (z.value(0) == 0 && z.value(1) == 0);
  });
  Options opt;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("closure"), std::string::npos) << res.failure;
}

TEST(ParallelChecker, RefusesOversizedSpace) {
  ParallelChecker pc(zeroFactory(3, 100), zeroLegit);
  Options opt;
  opt.maxStates = 1000;
  const Result res = pc.checkFullSpace(opt);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("too large"), std::string::npos);
}

TEST(ParallelChecker, ReachableExploresOnlySeededRegion) {
  ParallelChecker pc(zeroFactory(3, 3), zeroLegit);
  Options opt;
  const Result res = pc.checkReachable({{2, 1, 0}}, opt);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_LT(res.statesExplored, 27u);
  EXPECT_GE(res.statesExplored, 4u);
}

TEST(ParallelChecker, SpillTierPreservesResults) {
  // A 4-id RAM frontier forces run files on the 27-state toy.
  ParallelChecker pc(zeroFactory(3, 3), zeroLegit);
  Options plain;
  Options spilling;
  spilling.spillCapacity = 4;
  const Result a = pc.checkFullSpace(plain);
  const Result b = pc.checkFullSpace(spilling);
  EXPECT_TRUE(b.ok) << b.failure;
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.statesExplored, b.statesExplored);
  EXPECT_EQ(a.peakFrontier, b.peakFrontier);
  EXPECT_GE(b.spillRuns, 1u);

  // Same through a multi-level reachable exploration.
  Options spillReach;
  spillReach.spillCapacity = 3;
  const Result c = pc.checkReachable({{2, 2, 2}}, plain);
  const Result d = pc.checkReachable({{2, 2, 2}}, spillReach);
  EXPECT_EQ(c.ok, d.ok);
  EXPECT_EQ(c.statesExplored, d.statesExplored);
  EXPECT_EQ(c.peakFrontier, d.peakFrontier);
}

TEST(ParallelChecker, DftcVerdictAndFairnessModes) {
  auto factory = [] { return std::make_unique<Dftc>(Graph::path(2)); };
  auto legit = [](Protocol& p) {
    return static_cast<Dftc&>(p).isLegitimate();
  };
  Options opt;
  opt.fairness = Fairness::kWeaklyFair;
  opt.threads = 2;
  ParallelChecker pc(factory, legit);
  const Result res = pc.checkFullSpace(opt);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 32u);  // root(2·2) × leaf(2·2·2·1)
}

// mc_states_total counts every interned state once, BFS seeds included:
// its delta over a check equals Result::statesExplored in both modes.
TEST(ParallelChecker, StatesCounterMatchesStatesExplored) {
  const Graph g = Graph::ring(3);
  auto factory = [&g] { return std::make_unique<Dftc>(g); };
  auto legit = [](Protocol& p) {
    return static_cast<Dftc&>(p).isLegitimate();
  };
  ParallelChecker pc(factory, legit);
  Options opt;
  opt.threads = 2;
  opt.fairness = Fairness::kWeaklyFair;
  const obs::Registry& reg = obs::Registry::global();

  std::uint64_t before = reg.counterValue("mc_states_total");
  const Result full = pc.checkFullSpace(opt);
  ASSERT_TRUE(full.ok) << full.failure;
  EXPECT_EQ(reg.counterValue("mc_states_total") - before, full.statesExplored);

  Dftc clean(g);
  clean.resetClean();
  const std::vector<std::uint64_t> base = clean.encodeConfiguration();
  std::vector<std::vector<std::uint64_t>> seeds;
  for (NodeId p = 0; p < g.nodeCount(); ++p)
    for (std::uint64_t code = 0; code < clean.localStateCount(p); ++code) {
      seeds.push_back(base);
      seeds.back()[static_cast<std::size_t>(p)] = code;
    }
  before = reg.counterValue("mc_states_total");
  const Result reach = pc.checkReachable(seeds, opt);
  ASSERT_TRUE(reach.ok) << reach.failure;
  EXPECT_GT(reach.depthReached, 0);
  EXPECT_EQ(reg.counterValue("mc_states_total") - before,
            reach.statesExplored);
}

// ---------------------------------------------------------------------
// findFairCycle against a brute-force reference: SCCs from the
// reachability closure, then the per-SCC fairness rule, on random small
// digraphs with self-loops, duplicate edges and multi-word masks.

struct BruteForce {
  std::vector<int> scc;          // SCC label (its smallest member)
  std::vector<bool> violating;   // per state: its SCC violates
};

BruteForce bruteForce(const TransitionGraph& g, Fairness fairness) {
  const std::size_t n = g.stateCount();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t v = 0; v < n; ++v) {
    reach[v][v] = true;
    for (const TransitionGraph::Edge& e : g.edgesOf(v)) reach[v][e.to] = true;
  }
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (reach[i][k] && reach[k][j]) reach[i][j] = true;
  BruteForce out;
  out.scc.assign(n, -1);
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t u = 0; u <= v; ++u)
      if (out.scc[v] < 0 && reach[u][v] && reach[v][u])
        out.scc[v] = static_cast<int>(u);
  const auto words = static_cast<std::size_t>(g.maskWords);
  out.violating.assign(n, false);
  for (std::size_t root = 0; root < n; ++root) {
    if (out.scc[root] != static_cast<int>(root)) continue;
    bool internal = false;
    std::vector<std::uint64_t> all(words, ~std::uint64_t{0});
    std::vector<std::uint64_t> any(words, 0);
    std::vector<std::uint64_t> acts(words, 0);
    for (std::size_t v = 0; v < n; ++v) {
      if (out.scc[v] != static_cast<int>(root)) continue;
      for (std::size_t w = 0; w < words; ++w) {
        all[w] &= g.maskOf(v)[w];
        any[w] |= g.maskOf(v)[w];
      }
      for (const TransitionGraph::Edge& e : g.edgesOf(v)) {
        if (out.scc[e.to] != static_cast<int>(root)) continue;
        internal = true;
        acts[e.actorPair / 64] |= std::uint64_t{1} << (e.actorPair % 64);
      }
    }
    const std::vector<std::uint64_t>& guarded =
        fairness == Fairness::kStronglyFair ? any : all;
    bool starved = false;
    for (std::size_t w = 0; w < words; ++w)
      if ((guarded[w] & ~acts[w]) != 0) starved = true;
    const bool bad =
        internal && (fairness == Fairness::kNone || !starved);
    for (std::size_t v = 0; v < n; ++v)
      if (out.scc[v] == static_cast<int>(root)) out.violating[v] = bad;
  }
  return out;
}

/// A random digraph on 1..9 states.  Actor pairs come from a small pool
/// spread over up to 130 pair bits (three mask words), so fair and
/// unfair SCCs both occur; each state's mask holds the pairs of its
/// out-edges plus a few random others.
TransitionGraph randomGraph(Rng& rng) {
  const std::size_t pairBits = rng.below(2) == 0 ? 6 : 130;
  const std::uint32_t pool[] = {0, 1, 2, 5, 63, 64, 127, 129};
  auto randomPair = [&] {
    std::uint32_t p = pool[rng.below(8)];
    return p < pairBits ? p : p % 6;
  };
  TransitionGraph g;
  const auto n = static_cast<std::uint32_t>(1 + rng.below(9));
  g.initMasks(n, pairBits);
  for (std::uint32_t v = 0; v < n; ++v) {
    g.addState();
    const int out = rng.below(4);
    for (int k = 0; k < out; ++k) {
      const TransitionGraph::Edge e =
          k > 0 && rng.below(5) == 0
              ? g.edges.back()  // duplicate edge
              : TransitionGraph::Edge{
                    rng.below(4) == 0 ? v : static_cast<std::uint32_t>(
                                                rng.below(static_cast<int>(n))),
                    randomPair()};
      g.addEdge(e.to, e.actorPair);
      bits::maskSet(g.maskOf(v), e.actorPair);
    }
    for (int extra = rng.below(3); extra > 0; --extra)
      bits::maskSet(g.maskOf(v), randomPair());
  }
  return g;
}

TEST(FindFairCycle, MatchesBruteForceOnRandomDigraphs) {
  Rng rng(2024);
  int violations = 0;
  int passes = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const TransitionGraph g = randomGraph(rng);
    std::vector<std::uint32_t> order(g.stateCount());
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  rng.below(static_cast<int>(i)))]);
    const TransitionGraph shuffled = relabeled(g, order);
    for (Fairness f : {Fairness::kNone, Fairness::kWeaklyFair,
                       Fairness::kStronglyFair}) {
      for (const TransitionGraph* graph : {&g, &shuffled}) {
        const BruteForce ref = bruteForce(*graph, f);
        const bool anyBad =
            std::find(ref.violating.begin(), ref.violating.end(), true) !=
            ref.violating.end();
        const std::int64_t got = findFairCycle(*graph, f);
        ASSERT_EQ(got >= 0, anyBad) << "trial " << trial;
        if (got < 0) {
          ++passes;
          continue;
        }
        ++violations;
        const auto v = static_cast<std::size_t>(got);
        ASSERT_LT(v, graph->stateCount());
        EXPECT_TRUE(ref.violating[v]) << "trial " << trial;
        // The witness is its SCC's largest member.
        for (std::size_t u = v + 1; u < graph->stateCount(); ++u)
          EXPECT_NE(ref.scc[u], ref.scc[v]) << "trial " << trial;
      }
    }
  }
  EXPECT_GT(violations, 1000);
  EXPECT_GT(passes, 1000);
}

TEST(FindFairCycle, RelabelingKeepsEdgeOrderAndMasks) {
  TransitionGraph g;
  g.initMasks(3, 70);
  g.addState();
  g.addEdge(1, 3);
  g.addEdge(1, 3);
  g.addEdge(2, 69);
  g.addState();
  g.addState();
  g.addEdge(2, 0);
  bits::maskSet(g.maskOf(0), 69);
  bits::maskSet(g.maskOf(2), 0);
  const std::uint32_t order[] = {2, 0, 1};
  const TransitionGraph r = relabeled(g, order);
  ASSERT_EQ(r.stateCount(), 3u);
  ASSERT_EQ(r.edgesOf(0).size(), 1u);  // old 2
  EXPECT_EQ(r.edgesOf(0)[0].to, 0u);
  ASSERT_EQ(r.edgesOf(1).size(), 3u);  // old 0, edge order kept
  EXPECT_EQ(r.edgesOf(1)[0].to, 2u);
  EXPECT_EQ(r.edgesOf(1)[1].to, 2u);
  EXPECT_EQ(r.edgesOf(1)[2].to, 0u);
  EXPECT_EQ(r.edgesOf(1)[2].actorPair, 69u);
  EXPECT_TRUE(r.edgesOf(2).empty());
  EXPECT_EQ(r.maskOf(1)[1], g.maskOf(0)[1]);
  EXPECT_EQ(r.maskOf(0)[0], g.maskOf(2)[0]);
}

}  // namespace
}  // namespace ssno::mc
