// Parallel-vs-sequential equivalence: every protocol × tiny topology is
// verified by BOTH the sequential ModelChecker (incremental and naive
// expansion) and the src/mc ParallelChecker, and must produce the same
// verdict; the parallel engine's full result — verdict, failure text,
// counterexample trace, state and frontier counts — must be
// bit-identical for 1 and N exploration threads.  The cases cover every
// shape of graph the explorer records during BFS for its convergence
// check: interleaved and synchronous edges, weak and strong fairness,
// and reachable regions whose legitimate states have out-edges.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/graph.hpp"
#include "dftc/dftc.hpp"
#include "mc/explorer.hpp"
#include "orientation/dftno.hpp"
#include "toy_protocols.hpp"

namespace ssno {
namespace {

struct Case {
  std::string name;
  mc::ParallelChecker::Factory factory;
  mc::ParallelChecker::Legit legit;
  Fairness fairness = Fairness::kNone;
  /// Expected failure kind substring; empty = must pass.
  std::string expectKind;
  bool synchronous = false;  ///< synchronous-daemon semantics
};

std::vector<Case> equivalenceCases() {
  std::vector<Case> cases;
  cases.push_back(
      {"zero/path:3",
       [] { return std::make_unique<ZeroProtocol>(Graph::path(3), 3); },
       [](Protocol& p) { return static_cast<ZeroProtocol&>(p).allZero(); },
       Fairness::kNone,
       ""});
  cases.push_back(
      {"oscillate/path:2",
       [] { return std::make_unique<OscillateProtocol>(Graph::path(2)); },
       [](Protocol& p) {
         return static_cast<OscillateProtocol&>(p).allZero();
       },
       Fairness::kNone,
       "cycle"});
  cases.push_back(
      {"stuck/path:2",
       [] { return std::make_unique<StuckProtocol>(Graph::path(2)); },
       [](Protocol& p) { return static_cast<StuckProtocol&>(p).allZero(); },
       Fairness::kNone,
       "terminal"});
  for (const auto& [label, graph] :
       {std::pair<const char*, Graph>{"dftc/path:2", Graph::path(2)},
        {"dftc/path:3", Graph::path(3)},
        {"dftc/ring:3", Graph::ring(3)}}) {
    cases.push_back(
        {label,
         [graph] { return std::make_unique<Dftc>(graph); },
         [](Protocol& p) { return static_cast<Dftc&>(p).isLegitimate(); },
         Fairness::kWeaklyFair,
         ""});
  }
  cases.push_back(
      {"dftno/path:2",
       [] { return std::make_unique<Dftno>(Graph::path(2)); },
       [](Protocol& p) { return static_cast<Dftno&>(p).isLegitimate(); },
       Fairness::kWeaklyFair,
       ""});
  // Erratum 4: the paper-faithful edge-label guard diverges under weak
  // fairness — the parallel engine must agree on the failure too.
  cases.push_back(
      {"dftno-paper-guard/path:2",
       [] {
         return std::make_unique<Dftno>(Graph::path(2),
                                        EdgeLabelGuard::kPaperFaithful);
       },
       [](Protocol& p) { return static_cast<Dftno&>(p).isLegitimate(); },
       Fairness::kWeaklyFair,
       "fair-feasible cycle"});
  // Strong fairness: a lone flipping node keeps its only enabled pair
  // acting, so the cycle is strongly fair.
  cases.push_back(
      {"oscillate/path:2/strong",
       [] { return std::make_unique<OscillateProtocol>(Graph::path(2)); },
       [](Protocol& p) {
         return static_cast<OscillateProtocol&>(p).allZero();
       },
       Fairness::kStronglyFair,
       "fair-feasible cycle"});
  cases.push_back(
      {"dftno-paper-guard/path:2/strong",
       [] {
         return std::make_unique<Dftno>(Graph::path(2),
                                        EdgeLabelGuard::kPaperFaithful);
       },
       [](Protocol& p) { return static_cast<Dftno&>(p).isLegitimate(); },
       Fairness::kStronglyFair,
       ""});
  // Synchronous steps: every enabled node flips at once, a cycle of
  // simultaneous moves.
  cases.push_back(
      {"oscillate/path:3/sync",
       [] { return std::make_unique<OscillateProtocol>(Graph::path(3)); },
       [](Protocol& p) {
         return static_cast<OscillateProtocol&>(p).allZero();
       },
       Fairness::kNone,
       "cycle",
       /*synchronous=*/true});
  cases.push_back(
      {"zero/path:3/sync",
       [] { return std::make_unique<ZeroProtocol>(Graph::path(3), 3); },
       [](Protocol& p) { return static_cast<ZeroProtocol&>(p).allZero(); },
       Fairness::kNone,
       "",
       /*synchronous=*/true});
  return cases;
}

CheckResult sequentialVerdict(const Case& c, bool naive) {
  const std::unique_ptr<Protocol> protocol = c.factory();
  Protocol& ref = *protocol;
  ModelChecker checker(ref, [&c, &ref] { return c.legit(ref); });
  checker.setNaiveExpansion(naive);
  checker.setSynchronousSteps(c.synchronous);
  return checker.verifyFullSpace(1u << 22, c.fairness);
}

mc::Result parallelVerdict(const Case& c, int threads) {
  mc::ParallelChecker pc(c.factory, c.legit);
  mc::Options opt;
  opt.threads = threads;
  opt.fairness = c.fairness;
  opt.synchronousSteps = c.synchronous;
  return pc.checkFullSpace(opt);
}

TEST(McEquivalence, VerdictsMatchSequentialOnFullSpace) {
  for (const Case& c : equivalenceCases()) {
    const CheckResult incremental = sequentialVerdict(c, /*naive=*/false);
    const CheckResult naive = sequentialVerdict(c, /*naive=*/true);
    const mc::Result parallel = parallelVerdict(c, 2);
    EXPECT_EQ(incremental.ok, naive.ok) << c.name;
    EXPECT_EQ(incremental.failure, naive.failure) << c.name;
    EXPECT_EQ(incremental.ok, parallel.ok)
        << c.name << ": seq='" << incremental.failure << "' mc='"
        << parallel.failure << "'";
    if (c.expectKind.empty()) {
      EXPECT_TRUE(parallel.ok) << c.name << ": " << parallel.failure;
    } else {
      EXPECT_NE(parallel.failure.find(c.expectKind), std::string::npos)
          << c.name << ": " << parallel.failure;
      EXPECT_NE(incremental.failure.find(c.expectKind), std::string::npos)
          << c.name << ": " << incremental.failure;
    }
    // Both explore the same space exhaustively (pass cases).
    if (parallel.ok) {
      EXPECT_EQ(parallel.statesExplored, incremental.configsExplored)
          << c.name;
    }
  }
}

TEST(McEquivalence, ParallelResultsBitIdenticalAcrossThreadCounts) {
  for (const Case& c : equivalenceCases()) {
    const mc::Result one = parallelVerdict(c, 1);
    for (int threads : {2, 8}) {
      const mc::Result many = parallelVerdict(c, threads);
      EXPECT_EQ(one.ok, many.ok) << c.name;
      EXPECT_EQ(one.failure, many.failure) << c.name << " @" << threads;
      EXPECT_EQ(one.trace, many.trace) << c.name << " @" << threads;
      EXPECT_EQ(one.statesExplored, many.statesExplored) << c.name;
      EXPECT_EQ(one.transitions, many.transitions) << c.name;
      EXPECT_EQ(one.peakFrontier, many.peakFrontier) << c.name;
      EXPECT_EQ(one.depthReached, many.depthReached) << c.name;
    }
  }
}

// Fairness-aware convergence failures come from the same findFairCycle
// in both engines, on the same labelling: with one-word keys the
// explorer's key order is the sequential checker's index order.  So the
// reported configuration is the same.  (Under Fairness::kNone the
// sequential checker reports the first back edge of its own DFS, so
// only verdicts are compared there.)
TEST(McEquivalence, FairCycleWitnessMatchesSequential) {
  int compared = 0;
  for (const Case& c : equivalenceCases()) {
    if (c.fairness == Fairness::kNone || c.expectKind.empty()) continue;
    EXPECT_EQ(parallelVerdict(c, 2).failure,
              sequentialVerdict(c, /*naive=*/false).failure)
        << c.name;
    ++compared;
  }
  EXPECT_GE(compared, 2);
}

/// Every single-node corruption of `clean` (a 1-fault recovery cone).
std::vector<std::vector<std::uint64_t>> oneFaultSeeds(const Protocol& clean) {
  const std::vector<std::uint64_t> base = clean.encodeConfiguration();
  std::vector<std::vector<std::uint64_t>> seeds;
  for (NodeId p = 0; p < clean.graph().nodeCount(); ++p) {
    for (std::uint64_t code = 0; code < clean.localStateCount(p); ++code) {
      std::vector<std::uint64_t> seed = base;
      seed[static_cast<std::size_t>(p)] = code;
      seeds.push_back(std::move(seed));
    }
  }
  return seeds;
}

struct ReachableCase {
  std::string name;
  mc::ParallelChecker::Factory factory;
  mc::ParallelChecker::Legit legit;
  std::vector<std::vector<std::uint64_t>> seeds;
  std::string expectKind;  ///< empty = must pass
};

// Reachable mode on regions where legitimate states have out-edges (the
// token keeps circulating), so legitimate parents are expanded but not
// recorded, and legitimate-to-illegitimate edges must not leak into the
// convergence graph.
std::vector<ReachableCase> reachableCases() {
  std::vector<ReachableCase> cases;
  {
    const Graph g = Graph::ring(4);
    Dftc clean(g);
    clean.resetClean();
    cases.push_back({"dftc/ring:4",
                     [g] { return std::make_unique<Dftc>(g); },
                     [](Protocol& p) {
                       return static_cast<Dftc&>(p).isLegitimate();
                     },
                     oneFaultSeeds(clean), ""});
  }
  {
    // A clean substrate under an unlabelled overlay: with the paper's
    // guard, a weakly fair daemon may circulate the token forever.
    const Graph g = Graph::path(3);
    Dftno clean(g, EdgeLabelGuard::kPaperFaithful);
    clean.substrate().resetClean();
    cases.push_back({"dftno-paper-guard/path:3",
                     [g] {
                       return std::make_unique<Dftno>(
                           g, EdgeLabelGuard::kPaperFaithful);
                     },
                     [](Protocol& p) {
                       return static_cast<Dftno&>(p).isLegitimate();
                     },
                     oneFaultSeeds(clean), "fair-feasible cycle"});
  }
  return cases;
}

TEST(McEquivalence, ReachableVerdictsMatchAndTracesAreThreadFree) {
  for (const ReachableCase& c : reachableCases()) {
    const std::unique_ptr<Protocol> seq = c.factory();
    Protocol& ref = *seq;
    ModelChecker checker(ref, [&c, &ref] { return c.legit(ref); });
    const CheckResult seqRes =
        checker.verifyReachable(c.seeds, 1u << 22, Fairness::kWeaklyFair);

    mc::ParallelChecker pc(c.factory, c.legit);
    mc::Options opt;
    opt.fairness = Fairness::kWeaklyFair;
    opt.threads = 1;
    const mc::Result one = pc.checkReachable(c.seeds, opt);
    EXPECT_EQ(seqRes.ok, one.ok)
        << c.name << ": seq='" << seqRes.failure << "' mc='" << one.failure
        << "'";
    if (c.expectKind.empty()) {
      EXPECT_TRUE(one.ok) << c.name << ": " << one.failure;
      EXPECT_EQ(one.statesExplored, seqRes.configsExplored) << c.name;
    } else {
      EXPECT_NE(one.failure.find(c.expectKind), std::string::npos)
          << c.name << ": " << one.failure;
      EXPECT_NE(seqRes.failure.find(c.expectKind), std::string::npos)
          << c.name << ": " << seqRes.failure;
      EXPECT_FALSE(one.trace.empty()) << c.name;
    }
    for (int threads : {2, 8}) {
      opt.threads = threads;
      const mc::Result many = pc.checkReachable(c.seeds, opt);
      EXPECT_EQ(one.ok, many.ok) << c.name << " @" << threads;
      EXPECT_EQ(one.failure, many.failure) << c.name << " @" << threads;
      EXPECT_EQ(one.trace, many.trace) << c.name << " @" << threads;
      EXPECT_EQ(one.statesExplored, many.statesExplored) << c.name;
      EXPECT_EQ(one.transitions, many.transitions) << c.name;
      EXPECT_EQ(one.peakFrontier, many.peakFrontier) << c.name;
    }
  }
}

}  // namespace
}  // namespace ssno
