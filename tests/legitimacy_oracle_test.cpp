// Equivalence of the closed-form legitimacy oracles (Dftc::isLegitimate,
// Dftno::isLegitimate / substrateLegitimate) with the orbit sets they
// replaced (orbit_oracle.hpp): exhaustively on small DFTC spaces and on
// the ring:11 1-fault region, on every one-variable corruption of small
// orbits, and on random and adversarial DFTNO walks at n ≤ 128.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "core/graph.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "dftc/dftc.hpp"
#include "mc/explorer.hpp"
#include "orbit_oracle.hpp"
#include "orientation/dftno.hpp"
#include "resil/search_daemon.hpp"

namespace ssno {
namespace {

using reference::DftcOrbit;
using reference::DftnoOrbit;
using resil::SearchingDaemon;

std::string dump(const Protocol& p) {
  std::ostringstream out;
  for (NodeId v = 0; v < p.graph().nodeCount(); ++v)
    out << "  " << v << ": " << p.dumpNode(v) << "\n";
  return out.str();
}

// Every configuration of DFTC's full space in odometer order.  The delta
// decode rewrites only the processors whose code changed, so the gate
// is exercised through incremental writes, not just whole rewrites.
void expectFullSpaceAgrees(const Graph& g) {
  const DftcOrbit orbit(g);
  Dftc dftc(g);
  const auto n = static_cast<std::size_t>(g.nodeCount());
  std::vector<std::uint64_t> codes(n, 0);
  std::vector<std::uint64_t> prev;
  std::size_t legit = 0;
  std::size_t total = 0;
  while (true) {
    dftc.decodeConfigurationDelta(codes, prev);
    const bool expected = orbit.contains(dftc);
    ASSERT_EQ(dftc.isLegitimate(), expected) << dump(dftc);
    legit += expected ? 1 : 0;
    ++total;
    std::size_t p = 0;
    while (p < n && ++codes[p] == dftc.localStateCount(static_cast<NodeId>(p)))
      codes[p++] = 0;
    if (p == n) break;
  }
  EXPECT_EQ(legit, orbit.configurations().size());
  EXPECT_GT(total, legit);
}

TEST(DftcClosedForm, MatchesOrbitOnFullSpaces) {
  expectFullSpaceAgrees(Graph::path(3));
  expectFullSpaceAgrees(Graph::path(4));
  expectFullSpaceAgrees(Graph::ring(3));
  expectFullSpaceAgrees(Graph::ring(4));
}

// The verify workload's region: every state reachable from a single-node
// corruption of the clean configuration.  Both oracles judge each state
// as the checker interns it; the checker runs on the reference verdicts.
TEST(DftcClosedForm, MatchesOrbitOnRing11OneFaultRegion) {
  const Graph g = Graph::ring(11);
  const DftcOrbit orbit(g);
  Dftc clean(g);
  clean.resetClean();
  const std::vector<std::uint64_t> base = clean.encodeConfiguration();
  std::vector<std::vector<std::uint64_t>> seeds;
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (std::uint64_t code = 0; code < clean.localStateCount(p); ++code) {
      seeds.push_back(base);
      seeds.back()[static_cast<std::size_t>(p)] = code;
    }
  }
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> judged{0};
  mc::ParallelChecker checker(
      [&g] { return std::make_unique<Dftc>(g); },
      [&](Protocol& p) {
        const bool expected = orbit.contains(p);
        if (static_cast<Dftc&>(p).isLegitimate() != expected) ++mismatches;
        ++judged;
        return expected;
      });
  mc::Options opt;
  opt.threads = 2;
  opt.fairness = Fairness::kWeaklyFair;
  const mc::Result res = checker.checkReachable(seeds, opt);
  ASSERT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.statesExplored, 548'748u);
  EXPECT_EQ(res.transitions, 1'271'936u);
  EXPECT_GE(judged.load(), res.statesExplored);
  EXPECT_EQ(mismatches.load(), 0u);
}

std::vector<Graph> smallGraphs() {
  Rng topo(0x0B17);
  return {Graph::path(2),      Graph::path(5),        Graph::ring(6),
          Graph::star(5),      Graph::complete(4),    Graph::grid(3, 3),
          Graph::figure311(),  Graph::lollipop(3, 2), Graph::kAryTree(8, 2),
          Graph::randomConnected(9, 0.3, topo)};
}

// Each orbit configuration with one variable of one processor replaced
// by a nearby, zero or random value: the configurations just off the
// orbit, where a closed form that is too loose or too strict differs.
template <class P, class Orbit>
void expectPerturbationsAgree(const Graph& g, const Orbit& orbit,
                              const DftcOrbit& substrate) {
  P proto(g);
  Rng rng(0x9E37);
  const int n = g.nodeCount();
  for (const std::vector<int>& config : orbit.configurations()) {
    proto.setRawConfiguration(config);
    ASSERT_TRUE(proto.isLegitimate()) << dump(proto);
    for (NodeId p = 0; p < n; ++p) {
      const std::vector<int> raw = proto.rawNode(p);
      for (std::size_t k = 0; k < raw.size(); ++k) {
        for (const int v : {raw[k] - 1, raw[k] + 1, 0, rng.below(n)}) {
          std::vector<int> bent = raw;
          bent[k] = v;
          proto.setRawNode(p, bent);
          ASSERT_EQ(proto.isLegitimate(), orbit.contains(proto))
              << "node " << p << " var " << k << "\n" << dump(proto);
          if constexpr (std::is_same_v<P, Dftno>) {
            ASSERT_EQ(proto.substrateLegitimate(),
                      substrate.contains(proto.substrate()))
                << dump(proto);
          }
        }
        proto.setRawNode(p, raw);
      }
    }
  }
}

TEST(DftcClosedForm, MatchesOrbitOnOneVariablePerturbations) {
  for (const Graph& g : smallGraphs()) {
    const DftcOrbit orbit(g);
    expectPerturbationsAgree<Dftc>(g, orbit, orbit);
  }
}

TEST(DftnoClosedForm, MatchesOrbitOnOneVariablePerturbations) {
  for (const Graph& g : smallGraphs()) {
    expectPerturbationsAgree<Dftno>(g, DftnoOrbit(g), DftcOrbit(g));
  }
}

TEST(DftnoClosedForm, PaperFaithfulGuardHasTheSameOrbit) {
  for (const Graph& g : smallGraphs()) {
    EXPECT_EQ(DftnoOrbit(g, EdgeLabelGuard::kPaperFaithful).configurations(),
              DftnoOrbit(g).configurations());
  }
}

// Steps a DFTNO run from a random configuration one daemon step at a
// time, comparing both verdicts with the orbits before every step, and
// keeps going for `closureSteps` steps after reaching L_NO.
void expectWalkAgrees(const Graph& g, Daemon& daemon, std::uint64_t seed,
                      StepCount budget, int closureSteps, Dftno& dftno,
                      const DftcOrbit& substrate, const DftnoOrbit& orbit) {
  Rng rng(seed);
  dftno.randomize(rng);
  Simulator sim(dftno, daemon, rng);
  int after = -1;
  for (StepCount step = 0; step < budget; ++step) {
    const bool legit = orbit.contains(dftno);
    ASSERT_EQ(dftno.isLegitimate(), legit)
        << "n=" << g.nodeCount() << " step " << step << "\n" << dump(dftno);
    ASSERT_EQ(dftno.substrateLegitimate(), substrate.contains(dftno.substrate()))
        << "n=" << g.nodeCount() << " step " << step << "\n" << dump(dftno);
    if (legit && after < 0) after = 0;
    if (after >= 0 && after++ == closureSteps) return;
    ASSERT_FALSE(sim.stepOnce().empty()) << "terminal configuration";
  }
  FAIL() << "n=" << g.nodeCount() << " seed " << seed
         << ": no legitimate configuration within " << budget << " steps";
}

TEST(DftnoClosedForm, MatchesOrbitOnRandomDaemonWalks) {
  Rng topo(0x51);
  const std::vector<Graph> graphs = {
      Graph::ring(16),      Graph::grid(4, 5),
      Graph::complete(6),   Graph::lollipop(5, 6),
      Graph::kAryTree(30, 3), Graph::randomConnected(40, 0.08, topo),
      Graph::ring(128),
  };
  for (const Graph& g : graphs) {
    const DftcOrbit substrate(g);
    const DftnoOrbit orbit(g);
    for (const DaemonKind kind :
         {DaemonKind::kCentral, DaemonKind::kDistributed,
          DaemonKind::kSynchronous, DaemonKind::kRoundRobin}) {
      Dftno dftno(g);
      const std::unique_ptr<Daemon> daemon = makeDaemon(kind);
      expectWalkAgrees(g, *daemon, 17 + static_cast<std::uint64_t>(kind),
                       4'000'000, 4 * g.nodeCount(), dftno, substrate, orbit);
    }
  }
}

TEST(DftnoClosedForm, MatchesOrbitOnSearchingDaemonWalks) {
  const std::vector<Graph> graphs = {Graph::ring(12), Graph::grid(3, 4),
                                     Graph::figure311(), Graph::ring(24)};
  for (const Graph& g : graphs) {
    const DftcOrbit substrate(g);
    const DftnoOrbit orbit(g);
    for (const int lookahead : {0, 1}) {
      Dftno dftno(g);
      SearchingDaemon daemon(dftno, lookahead);
      expectWalkAgrees(g, daemon, 99 + static_cast<std::uint64_t>(lookahead),
                       2'000'000, 4 * g.nodeCount(), dftno, substrate, orbit);
    }
  }
}

// Debug builds only: more walks at n ≤ 64, where the library also
// asserts on every verdict that its gate counts equal a recount (a
// write path that forgot to re-file a node fails here).
TEST(DftnoClosedForm, DebugCrossCheckMoreWalks) {
#ifdef NDEBUG
  GTEST_SKIP() << "Debug builds only";
#else
  Rng topo(0xDEB);
  const std::vector<Graph> graphs = {
      Graph::ring(9), Graph::torus(3, 4), Graph::caterpillar(4, 2),
      Graph::randomConnected(16, 0.2, topo)};
  for (const Graph& g : graphs) {
    const DftcOrbit substrate(g);
    const DftnoOrbit orbit(g);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      for (const DaemonKind kind :
           {DaemonKind::kCentral, DaemonKind::kDistributed,
            DaemonKind::kSynchronous, DaemonKind::kRoundRobin}) {
        Dftno dftno(g);
        const std::unique_ptr<Daemon> daemon = makeDaemon(kind);
        expectWalkAgrees(g, *daemon, seed * 31, 4'000'000, 3 * g.nodeCount(),
                         dftno, substrate, orbit);
      }
    }
    Dftno dftno(g);
    SearchingDaemon daemon(dftno);
    expectWalkAgrees(g, daemon, 5, 2'000'000, 3 * g.nodeCount(), dftno,
                     substrate, orbit);
  }
#endif
}

}  // namespace
}  // namespace ssno
