// Unit tests for conflict graphs, topologies and colorings.
#include <gtest/gtest.h>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/topology.hpp"

namespace {

using ekbd::graph::ConflictGraph;
using ekbd::graph::ProcessId;
using ekbd::sim::Rng;

TEST(Graph, EmptyGraph) {
  ConflictGraph g(4);
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_FALSE(g.adjacent(0, 1));
  EXPECT_FALSE(g.connected());
}

TEST(Graph, AddEdgeIsSymmetricAndIdempotent) {
  ConflictGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // duplicate
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 0));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, NeighborsSorted) {
  ConflictGraph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  EXPECT_EQ(g.neighbors(2), (std::vector<ProcessId>{0, 3, 4}));
}

TEST(Graph, EdgesListAscending) {
  ConflictGraph g(4);
  g.add_edge(3, 1);
  g.add_edge(0, 2);
  auto es = g.edges();
  ASSERT_EQ(es.size(), 2u);
  for (auto [a, b] : es) EXPECT_LT(a, b);
}

TEST(Topology, RingShape) {
  auto g = ekbd::graph::ring(6);
  EXPECT_EQ(g.size(), 6u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_TRUE(g.adjacent(0, 5));
  EXPECT_TRUE(g.adjacent(2, 3));
  EXPECT_TRUE(g.connected());
}

TEST(Topology, PathShape) {
  auto g = ekbd::graph::path(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_TRUE(g.connected());
}

TEST(Topology, CliqueShape) {
  auto g = ekbd::graph::clique(5);
  EXPECT_EQ(g.num_edges(), 10u);
  EXPECT_EQ(g.max_degree(), 4u);
  for (ProcessId i = 0; i < 5; ++i) {
    for (ProcessId j = 0; j < 5; ++j) {
      if (i != j) {
        EXPECT_TRUE(g.adjacent(i, j));
      }
    }
  }
}

TEST(Topology, StarShape) {
  auto g = ekbd::graph::star(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.degree(0), 6u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(Topology, GridShape) {
  auto g = ekbd::graph::grid(3, 4);
  EXPECT_EQ(g.size(), 12u);
  // 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8
  EXPECT_EQ(g.num_edges(), 17u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_TRUE(g.connected());
}

TEST(Topology, BinaryTreeShape) {
  auto g = ekbd::graph::binary_tree(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(0, 2));
  EXPECT_TRUE(g.adjacent(1, 3));
  EXPECT_TRUE(g.connected());
}

TEST(Topology, RandomConnectedIsConnected) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto g = ekbd::graph::random_connected(20, 0.1, rng);
    EXPECT_TRUE(g.connected()) << "seed " << seed;
    EXPECT_GE(g.num_edges(), 19u);
  }
}

TEST(Topology, HypercubeShape) {
  auto g = ekbd::graph::hypercube(3);
  EXPECT_EQ(g.size(), 8u);
  EXPECT_EQ(g.num_edges(), 12u);  // d * 2^d / 2
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(0, 2));
  EXPECT_TRUE(g.adjacent(0, 4));
  EXPECT_FALSE(g.adjacent(0, 3));  // differs in two bits
  EXPECT_TRUE(g.connected());
}

TEST(Topology, TorusShape) {
  auto g = ekbd::graph::torus(3, 4);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_EQ(g.num_edges(), 24u);  // 2 * rows * cols (4-regular)
  for (std::size_t p = 0; p < g.size(); ++p) {
    EXPECT_EQ(g.degree(static_cast<ProcessId>(p)), 4u) << p;
  }
  EXPECT_TRUE(g.adjacent(0, 3));  // row wraparound
  EXPECT_TRUE(g.adjacent(0, 8));  // column wraparound
  EXPECT_TRUE(g.connected());
}

TEST(Topology, CompleteBipartiteShape) {
  auto g = ekbd::graph::complete_bipartite(3, 4);
  EXPECT_EQ(g.size(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  // No intra-side edges.
  EXPECT_FALSE(g.adjacent(0, 1));
  EXPECT_FALSE(g.adjacent(3, 4));
  EXPECT_TRUE(g.adjacent(0, 3));
  EXPECT_TRUE(g.connected());
  // Two colors suffice.
  auto c = ekbd::graph::greedy_coloring(g);
  EXPECT_EQ(ekbd::graph::num_colors(c), 2u);
}

TEST(Topology, ByNameDispatch) {
  Rng rng(1);
  EXPECT_EQ(ekbd::graph::by_name("ring", 5, rng).num_edges(), 5u);
  EXPECT_EQ(ekbd::graph::by_name("clique", 4, rng).num_edges(), 6u);
  EXPECT_GE(ekbd::graph::by_name("grid", 9, rng).size(), 9u);
  EXPECT_EQ(ekbd::graph::by_name("hypercube", 8, rng).num_edges(), 12u);
  EXPECT_EQ(ekbd::graph::by_name("hypercube", 5, rng).size(), 8u);  // rounds up
  EXPECT_GE(ekbd::graph::by_name("torus", 9, rng).size(), 9u);
  EXPECT_EQ(ekbd::graph::by_name("bipartite", 7, rng).num_edges(), 12u);
  EXPECT_THROW(ekbd::graph::by_name("moebius", 5, rng), std::invalid_argument);
}

TEST(Coloring, GreedyProperOnStandardTopologies) {
  Rng rng(2);
  for (const char* name : {"ring", "path", "clique", "star", "grid", "tree", "random",
                           "hypercube", "torus", "bipartite"}) {
    auto g = ekbd::graph::by_name(name, 16, rng);
    auto c = ekbd::graph::greedy_coloring(g);
    EXPECT_TRUE(ekbd::graph::is_proper(g, c)) << name;
    EXPECT_LE(ekbd::graph::num_colors(c), g.max_degree() + 1) << name;
  }
}

TEST(Coloring, WelshPowellProperAndBounded) {
  Rng rng(3);
  for (const char* name : {"ring", "clique", "star", "random"}) {
    auto g = ekbd::graph::by_name(name, 24, rng);
    auto c = ekbd::graph::welsh_powell_coloring(g);
    EXPECT_TRUE(ekbd::graph::is_proper(g, c)) << name;
    EXPECT_LE(ekbd::graph::num_colors(c), g.max_degree() + 1) << name;
  }
}

TEST(Coloring, StarUsesTwoColors) {
  auto g = ekbd::graph::star(10);
  auto c = ekbd::graph::welsh_powell_coloring(g);
  EXPECT_EQ(ekbd::graph::num_colors(c), 2u);
}

TEST(Coloring, CliqueUsesNColors) {
  auto g = ekbd::graph::clique(6);
  auto c = ekbd::graph::greedy_coloring(g);
  EXPECT_EQ(ekbd::graph::num_colors(c), 6u);
}

TEST(Coloring, IsProperRejectsBadColoring) {
  auto g = ekbd::graph::path(3);
  EXPECT_FALSE(ekbd::graph::is_proper(g, {0, 0, 1}));
  EXPECT_FALSE(ekbd::graph::is_proper(g, {0, 1}));     // wrong size
  EXPECT_FALSE(ekbd::graph::is_proper(g, {0, -1, 0})); // unassigned
  EXPECT_TRUE(ekbd::graph::is_proper(g, {0, 1, 0}));
}

// ----------------------------------------- incremental recoloring repair

TEST(Repair, EdgeAddBetweenDistinctColorsIsFree) {
  auto g = ekbd::graph::path(4);  // 0-1-2-3
  ekbd::graph::Coloring c = {0, 1, 0, 1};
  g.add_edge(0, 3);  // endpoints already differ (0 vs 1)
  EXPECT_EQ(ekbd::graph::repair_after_edge_add(g, c, 0, 3), ekbd::graph::kNoRecolor);
  EXPECT_EQ(c, (ekbd::graph::Coloring{0, 1, 0, 1}));  // untouched
}

TEST(Repair, EdgeAddConflictForcesColorBump) {
  // Odd ring: 2-coloring fails once a chord joins two same-colored
  // vertices; the repair must bump exactly one endpoint to a fresh color.
  auto g = ekbd::graph::path(5);  // 0-1-2-3-4
  ekbd::graph::Coloring c = {0, 1, 0, 1, 0};
  ASSERT_TRUE(ekbd::graph::is_proper(g, c));
  g.add_edge(0, 2);  // both color 0
  const ProcessId moved = ekbd::graph::repair_after_edge_add(g, c, 0, 2);
  ASSERT_NE(moved, ekbd::graph::kNoRecolor);
  EXPECT_TRUE(moved == 0 || moved == 2);
  EXPECT_TRUE(ekbd::graph::is_proper(g, c));
  // degree(0)=2 < degree(2)=3 → the lower-degree endpoint moves, and the
  // smallest free color around 0 = {1 (from 1), 0 (from 2)} is 2.
  EXPECT_EQ(moved, 0);
  EXPECT_EQ(c[0], 2);
}

TEST(Repair, TieBreaksTowardHigherId) {
  // Two disjoint same-colored edges joined by a new edge: equal degrees,
  // so the higher-id endpoint is the one recolored.
  ConflictGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  ekbd::graph::Coloring c = {0, 1, 0, 1};
  g.add_edge(0, 2);  // degree(0) == degree(2) == 2, both color 0
  const ProcessId moved = ekbd::graph::repair_after_edge_add(g, c, 0, 2);
  EXPECT_EQ(moved, 2);
  EXPECT_TRUE(ekbd::graph::is_proper(g, c));
}

TEST(Repair, NeverRecolorsOutsideTheAffectedNeighborhood) {
  // Invariant: a repair touches at most one vertex, and that vertex is an
  // endpoint of the added edge — never a bystander. Sweep random graphs
  // and random chord additions.
  Rng rng(2026);
  for (int round = 0; round < 50; ++round) {
    ConflictGraph g = ekbd::graph::random_connected(12, 0.25, rng);
    ekbd::graph::Coloring c = ekbd::graph::welsh_powell_coloring(g);
    // Pick a random absent pair.
    ProcessId a = -1, b = -1;
    for (int tries = 0; tries < 100; ++tries) {
      const auto x = static_cast<ProcessId>(rng.index(12));
      const auto y = static_cast<ProcessId>(rng.index(12));
      if (x != y && !g.adjacent(x, y)) { a = x; b = y; break; }
    }
    if (a < 0) continue;  // dense draw, nothing to add
    const ekbd::graph::Coloring before = c;
    g.add_edge(a, b);
    const ProcessId moved = ekbd::graph::repair_after_edge_add(g, c, a, b);
    ASSERT_TRUE(ekbd::graph::is_proper(g, c));
    for (std::size_t v = 0; v < c.size(); ++v) {
      if (static_cast<ProcessId>(v) == moved) continue;
      EXPECT_EQ(c[v], before[v]) << "bystander " << v << " recolored";
    }
    if (moved != ekbd::graph::kNoRecolor) {
      EXPECT_TRUE(moved == a || moved == b);
      // The repaired color is the greedy choice, so the palette never
      // exceeds the new neighborhood size + 1.
      EXPECT_LE(static_cast<std::size_t>(c[static_cast<std::size_t>(moved)]),
                g.degree(moved));
    } else {
      EXPECT_EQ(c, before);
    }
  }
}

TEST(Repair, LowerColorShrinksPaletteAfterRemoval) {
  // Triangle forces 3 colors; removing one edge lets the vertex that held
  // the third color drop back down.
  ConflictGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  ekbd::graph::Coloring c = {0, 1, 2};
  ASSERT_EQ(ekbd::graph::num_colors(c), 3u);

  g.remove_edge(0, 2);  // now the path 0-1-2
  EXPECT_TRUE(ekbd::graph::is_proper(g, c));  // removal never breaks properness
  EXPECT_TRUE(ekbd::graph::lower_color(g, c, 2));  // 2's neighborhood = {1}: 0 free
  EXPECT_EQ(c[2], 0);
  EXPECT_EQ(ekbd::graph::num_colors(c), 2u);
  EXPECT_FALSE(ekbd::graph::lower_color(g, c, 2));  // already minimal
  EXPECT_TRUE(ekbd::graph::is_proper(g, c));
}

TEST(Repair, NodeRemovalShrinksPaletteViaProbes) {
  // A star needs two colors while the hub stands; cutting every hub edge
  // (= removing the node from the conflict community) frees that
  // constraint and lower_color probes shrink the palette to 1.
  auto g = ekbd::graph::star(5);
  ekbd::graph::Coloring c = ekbd::graph::welsh_powell_coloring(g);
  ASSERT_EQ(ekbd::graph::num_colors(c), 2u);
  for (ProcessId leaf = 1; leaf < 5; ++leaf) g.remove_edge(0, leaf);
  EXPECT_TRUE(ekbd::graph::lower_color(g, c, 0) || c[0] == 0);
  for (ProcessId v = 0; v < 5; ++v) {
    ekbd::graph::lower_color(g, c, v);
    EXPECT_EQ(c[static_cast<std::size_t>(v)], 0);
  }
  EXPECT_EQ(ekbd::graph::num_colors(c), 1u);
}

TEST(Repair, SmallestFreeColorSkipsOccupied) {
  auto g = ekbd::graph::star(4);  // hub 0, leaves 1..3
  const ekbd::graph::Coloring c = {3, 0, 1, 2};
  // Hub sees {0,1,2} → smallest free is 3; a leaf sees {3} → 0.
  EXPECT_EQ(ekbd::graph::smallest_free_color(g, c, 0), 3);
  EXPECT_EQ(ekbd::graph::smallest_free_color(g, c, 1), 0);
}

}  // namespace
