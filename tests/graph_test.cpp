// Unit tests for the rooted-network Graph and its topology builders.
#include "core/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/rng.hpp"
#include "exp/topology.hpp"

namespace ssno {
namespace {

TEST(Graph, BasicConstruction) {
  const Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.nodeCount(), 3);
  EXPECT_EQ(g.edgeCount(), 2);
  EXPECT_EQ(g.root(), 0);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 0));
  EXPECT_FALSE(g.adjacent(0, 2));
  EXPECT_TRUE(g.isConnected());
}

TEST(Graph, PortNumberingFollowsInsertionOrder) {
  const Graph g(4, {{0, 2}, {0, 1}, {0, 3}});
  EXPECT_EQ(g.neighborAt(0, 0), 2);
  EXPECT_EQ(g.neighborAt(0, 1), 1);
  EXPECT_EQ(g.neighborAt(0, 2), 3);
  EXPECT_EQ(g.portOf(0, 1), 1);
  EXPECT_EQ(g.portOf(1, 0), 0);
  EXPECT_EQ(g.portOf(1, 2), kNoPort);
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(Graph(2, {{0, 0}}), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge) {
  EXPECT_THROW(Graph(2, {{0, 1}, {1, 0}}), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph(2, {{0, 2}}), std::invalid_argument);
}

TEST(Graph, RejectsBadRoot) {
  EXPECT_THROW(Graph(2, {{0, 1}}, 5), std::invalid_argument);
}

TEST(Graph, DisconnectedDetected) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.isConnected());
}

// The CSR + port-table representation must agree everywhere with the
// reference nested-adjacency construction (ports in edge insertion
// order) that Graph used before the flat layout.
TEST(Graph, CsrMatchesReferenceAdjacency) {
  Rng rng(0xC5A);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + rng.below(40);
    // Random simple edge list (dedup via set), plus a spanning path so
    // degrees stay non-trivial.
    std::set<std::pair<NodeId, NodeId>> seen;
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int i = 0; i + 1 < n; ++i) {
      edges.emplace_back(i, i + 1);
      seen.insert({i, i + 1});
    }
    for (int tries = 0; tries < 3 * n; ++tries) {
      const NodeId u = rng.below(n);
      const NodeId v = rng.below(n);
      if (u == v) continue;
      const auto [lo, hi] = std::minmax(u, v);
      if (!seen.insert({lo, hi}).second) continue;
      edges.emplace_back(u, v);
    }
    const Graph g(n, edges);

    // Reference: nested adjacency in insertion order.
    std::vector<std::vector<NodeId>> ref(static_cast<std::size_t>(n));
    for (const auto& [u, v] : edges) {
      ref[static_cast<std::size_t>(u)].push_back(v);
      ref[static_cast<std::size_t>(v)].push_back(u);
    }

    ASSERT_EQ(g.edgeCount(), static_cast<int>(edges.size()));
    int maxDeg = 0;
    for (NodeId p = 0; p < n; ++p) {
      const auto& nbrs = ref[static_cast<std::size_t>(p)];
      maxDeg = std::max(maxDeg, static_cast<int>(nbrs.size()));
      ASSERT_EQ(g.degree(p), static_cast<int>(nbrs.size()));
      const auto span = g.neighbors(p);
      ASSERT_EQ(span.size(), nbrs.size());
      for (Port l = 0; l < g.degree(p); ++l) {
        EXPECT_EQ(g.neighborAt(p, l), nbrs[static_cast<std::size_t>(l)]);
        EXPECT_EQ(span[static_cast<std::size_t>(l)],
                  nbrs[static_cast<std::size_t>(l)]);
      }
      // portOf vs a scan of the reference row, for every q.
      for (NodeId q = 0; q < n; ++q) {
        Port expected = kNoPort;
        for (std::size_t i = 0; i < nbrs.size(); ++i)
          if (nbrs[i] == q) {
            expected = static_cast<Port>(i);
            break;
          }
        EXPECT_EQ(g.portOf(p, q), expected);
        EXPECT_EQ(g.adjacent(p, q), expected != kNoPort);
      }
    }
    EXPECT_EQ(g.maxDegree(), maxDeg);
  }
}

// portOf against a scan of the row, for every (p, q) — adjacent or not.
void expectPortOfMatchesScan(const Graph& g) {
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    const auto row = g.neighbors(p);
    for (NodeId q = 0; q < g.nodeCount(); ++q) {
      Port expected = kNoPort;
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i] == q) {
          expected = static_cast<Port>(i);
          break;
        }
      }
      ASSERT_EQ(g.portOf(p, q), expected) << p << "->" << q;
    }
  }
}

// backPort(p, l) names the far end's port of every directed slot.
void expectBackPortsInvert(const Graph& g) {
  for (NodeId p = 0; p < g.nodeCount(); ++p) {
    for (Port l = 0; l < g.degree(p); ++l) {
      const NodeId q = g.neighborAt(p, l);
      const Port back = g.backPort(p, l);
      ASSERT_GE(back, 0);
      ASSERT_LT(back, g.degree(q));
      ASSERT_EQ(g.neighborAt(q, back), p) << p << " port " << l;
      ASSERT_EQ(g.backPort(q, back), l);
    }
  }
}

TEST(Graph, BackPortAndPortOfOnEveryTopologyFamily) {
  for (const char* spec :
       {"ring:9", "path:7", "star:6", "complete:7", "hypercube:4",
        "grid:4x5", "torus:4x5", "kary:20x3", "caterpillar:4x3",
        "lollipop:5x4", "rtree:30:3", "er:30:0.2:5", "chordring:16:3,5",
        "dreg:24:5:7", "plaw:40:1.0:9"}) {
    SCOPED_TRACE(spec);
    const Graph g = exp::TopologySpec::parse(spec).build();
    expectBackPortsInvert(g);
    expectPortOfMatchesScan(g);
  }
  Rng rng(0xBAC);
  for (const Graph& g :
       {Graph::randomTree(25, rng), Graph::randomConnected(25, 0.2, rng),
        Graph::figure311(), Graph::figure221()}) {
    expectBackPortsInvert(g);
    expectPortOfMatchesScan(g);
  }
}

TEST(Graph, PortOfOnHighDegreeHub) {
  const Graph g = Graph::star(300);
  for (NodeId q = 1; q < 300; ++q) {
    ASSERT_EQ(g.portOf(0, q), q - 1);
    ASSERT_EQ(g.portOf(q, 0), 0);
    ASSERT_EQ(g.backPort(0, q - 1), 0);
  }
  EXPECT_EQ(g.portOf(1, 2), kNoPort);
  EXPECT_EQ(g.portOf(0, 0), kNoPort);
}

TEST(Graph, RejectsDuplicateEdgeAnywhereInTheList) {
  EXPECT_THROW(Graph(4, {{0, 1}, {1, 2}, {2, 3}, {2, 1}}),
               std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 2}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 2}, {2, 2}}), std::invalid_argument);
  EXPECT_NO_THROW(Graph(3, {{0, 1}, {1, 2}, {2, 0}}));
}

TEST(GraphBuilders, Ring) {
  const Graph g = Graph::ring(5);
  EXPECT_EQ(g.nodeCount(), 5);
  EXPECT_EQ(g.edgeCount(), 5);
  EXPECT_TRUE(g.isConnected());
  for (NodeId p = 0; p < 5; ++p) EXPECT_EQ(g.degree(p), 2);
}

TEST(GraphBuilders, Path) {
  const Graph g = Graph::path(4);
  EXPECT_EQ(g.edgeCount(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 1);
}

TEST(GraphBuilders, Star) {
  const Graph g = Graph::star(6);
  EXPECT_EQ(g.degree(0), 5);
  for (NodeId p = 1; p < 6; ++p) EXPECT_EQ(g.degree(p), 1);
  EXPECT_EQ(g.maxDegree(), 5);
}

TEST(GraphBuilders, Complete) {
  const Graph g = Graph::complete(5);
  EXPECT_EQ(g.edgeCount(), 10);
  for (NodeId p = 0; p < 5; ++p) EXPECT_EQ(g.degree(p), 4);
}

TEST(GraphBuilders, Grid) {
  const Graph g = Graph::grid(3, 4);
  EXPECT_EQ(g.nodeCount(), 12);
  EXPECT_EQ(g.edgeCount(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(g.isConnected());
}

TEST(GraphBuilders, Torus) {
  const Graph g = Graph::torus(3, 3);
  EXPECT_EQ(g.nodeCount(), 9);
  EXPECT_EQ(g.edgeCount(), 18);
  for (NodeId p = 0; p < 9; ++p) EXPECT_EQ(g.degree(p), 4);
}

TEST(GraphBuilders, Hypercube) {
  const Graph g = Graph::hypercube(3);
  EXPECT_EQ(g.nodeCount(), 8);
  EXPECT_EQ(g.edgeCount(), 12);
  for (NodeId p = 0; p < 8; ++p) EXPECT_EQ(g.degree(p), 3);
}

TEST(GraphBuilders, Lollipop) {
  const Graph g = Graph::lollipop(4, 3);
  EXPECT_EQ(g.nodeCount(), 7);
  EXPECT_EQ(g.edgeCount(), 6 + 3);
  EXPECT_TRUE(g.isConnected());
  EXPECT_EQ(g.degree(6), 1);  // tail end
}

TEST(GraphBuilders, KAryTree) {
  const Graph g = Graph::kAryTree(7, 2);  // complete binary tree
  EXPECT_EQ(g.edgeCount(), 6);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.degree(3), 1);
}

TEST(GraphBuilders, Caterpillar) {
  const Graph g = Graph::caterpillar(3, 2);
  EXPECT_EQ(g.nodeCount(), 9);
  EXPECT_EQ(g.edgeCount(), 8);
  EXPECT_TRUE(g.isConnected());
}

TEST(GraphBuilders, RandomTreeIsSpanningTree) {
  Rng rng(42);
  for (int n : {1, 2, 3, 10, 50}) {
    const Graph g = Graph::randomTree(n, rng);
    EXPECT_EQ(g.nodeCount(), n);
    EXPECT_EQ(g.edgeCount(), n - 1);
    EXPECT_TRUE(g.isConnected());
  }
}

TEST(GraphBuilders, RandomConnectedIsConnected) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = Graph::randomConnected(20, 0.1, rng);
    EXPECT_TRUE(g.isConnected());
    EXPECT_GE(g.edgeCount(), 19);
  }
}

TEST(GraphBuilders, Figure311MatchesPaperTrace) {
  // r=0, a=1, b=2, c=3, d=4; DFS in port order must visit r,b,d,c then a.
  const Graph g = Graph::figure311();
  EXPECT_EQ(g.nodeCount(), 5);
  EXPECT_EQ(g.neighborAt(0, 0), 2);  // the root explores b before a
  EXPECT_EQ(g.neighborAt(0, 1), 1);
  EXPECT_TRUE(g.adjacent(2, 4));
  EXPECT_TRUE(g.adjacent(4, 3));
  EXPECT_TRUE(g.isConnected());
}

TEST(GraphBuilders, Figure221HasChord) {
  const Graph g = Graph::figure221();
  EXPECT_EQ(g.nodeCount(), 5);
  EXPECT_EQ(g.edgeCount(), 6);
  EXPECT_TRUE(g.adjacent(0, 2));
}

}  // namespace
}  // namespace ssno
