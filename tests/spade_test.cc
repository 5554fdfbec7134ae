// Tests for the Spade facade: the Listing 1 API surface, built-in semantics
// (DG/DW/FD), edge grouping (Algorithm 3) and its benign-edge guarantees
// (Definition 4.1, Lemmas 4.3/4.4).

#include "core/spade.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "datagen/workload.h"
#include "graph/graph_io.h"
#include "metrics/density.h"
#include "peel/static_peeler.h"
#include "tests/test_util.h"

namespace spade {
namespace {

// A small transaction log: a dense ring {0,1,2} plus background edges.
std::vector<Edge> DenseRingLog() {
  return {
      {0, 1, 10.0, 1}, {1, 2, 10.0, 2}, {2, 0, 10.0, 3},
      {3, 4, 1.0, 4},  {4, 5, 1.0, 5},  {5, 6, 1.0, 6},
  };
}

TEST(SpadeTest, BuildAndDetectWithDG) {
  Spade spade;
  spade.SetSemantics(MakeDG());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  Community c = spade.Detect();
  std::sort(c.members.begin(), c.members.end());
  // DG ignores weights: ring density 3/3 = 1; whole graph 6/7 < 1.
  EXPECT_EQ(c.members, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(c.density, 1.0);
}

TEST(SpadeTest, DWUsesTransactionAmounts) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  Community c = spade.Detect();
  std::sort(c.members.begin(), c.members.end());
  EXPECT_EQ(c.members, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(c.density, 10.0);
}

TEST(SpadeTest, FDWeightsByObjectDegree) {
  Spade spade;
  spade.SetSemantics(MakeFD());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  const auto& g = spade.graph();
  // Every inserted edge weight must equal 1/log(deg(dst) + 5) evaluated at
  // insertion time; all degrees here are small, so weights are in
  // (1/log(11), 1/log(5)].
  for (std::size_t v = 0; v < g.NumVertices(); ++v) {
    for (const auto& e : g.OutNeighbors(static_cast<VertexId>(v))) {
      EXPECT_GT(e.weight, 1.0 / std::log(11.0));
      EXPECT_LE(e.weight, 1.0 / std::log(5.0));
    }
  }
  EXPECT_FALSE(spade.Detect().members.empty());
}

TEST(SpadeTest, CustomSemanticsViaVSuspESusp) {
  Spade spade;
  spade.VSusp([](VertexId v, const DynamicGraph&) {
    return v == 3 ? 100.0 : 0.0;  // vertex 3 is known-suspicious
  });
  spade.ESusp([](const Edge&, const DynamicGraph&) { return 0.001; });
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  Community c = spade.Detect();
  // The huge prior makes {3} itself the densest subgraph.
  ASSERT_EQ(c.members.size(), 1u);
  EXPECT_EQ(c.members[0], 3u);
  EXPECT_NEAR(c.density, 100.0, 1.0);
}

TEST(SpadeTest, InsertEdgeUpdatesCommunity) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());

  // A new heavier ring {4,5,6} overtakes the old one.
  for (const Edge& e : std::vector<Edge>{
           {4, 5, 40.0, 10}, {5, 6, 40.0, 11}, {6, 4, 40.0, 12}}) {
    auto r = spade.InsertEdge(e);
    ASSERT_TRUE(r.ok());
  }
  Community c = spade.Detect();
  std::sort(c.members.begin(), c.members.end());
  EXPECT_EQ(c.members, (std::vector<VertexId>{4, 5, 6}));
}

TEST(SpadeTest, InsertMatchesStaticRecompute) {
  Rng rng(404);
  Spade spade;
  spade.SetSemantics(MakeDW());
  std::vector<Edge> initial;
  for (int i = 0; i < 40; ++i) {
    initial.push_back(testing::RandomEdge(&rng, 20));
  }
  ASSERT_TRUE(spade.BuildGraph(20, initial).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(spade.InsertEdge(testing::RandomEdge(&rng, 20)).ok());
    testing::ExpectStateEquals(PeelStatic(spade.graph()),
                               spade.peel_state());
  }
}

TEST(SpadeTest, InsertBatchMatchesStaticRecompute) {
  Rng rng(405);
  Spade spade;
  spade.SetSemantics(MakeDW());
  std::vector<Edge> initial;
  for (int i = 0; i < 40; ++i) {
    initial.push_back(testing::RandomEdge(&rng, 20));
  }
  ASSERT_TRUE(spade.BuildGraph(20, initial).ok());
  for (int round = 0; round < 5; ++round) {
    std::vector<Edge> batch;
    for (int i = 0; i < 25; ++i) batch.push_back(testing::RandomEdge(&rng, 20));
    ASSERT_TRUE(spade.InsertBatchEdges(batch).ok());
    testing::ExpectStateEquals(PeelStatic(spade.graph()),
                               spade.peel_state());
  }
}

TEST(SpadeTest, DeleteEdgeMatchesStaticRecompute) {
  Rng rng(406);
  Spade spade;
  spade.SetSemantics(MakeDW());
  std::vector<Edge> initial;
  for (int i = 0; i < 30; ++i) {
    initial.push_back(testing::RandomEdge(&rng, 15));
  }
  ASSERT_TRUE(spade.BuildGraph(15, initial).ok());
  for (int i = 0; i < 10; ++i) {
    const Edge& victim = initial[rng.NextBounded(initial.size())];
    const Status s = spade.DeleteEdge(victim.src, victim.dst);
    if (s.ok()) {
      testing::ExpectStateEquals(PeelStatic(spade.graph()),
                                 spade.peel_state());
    }
  }
}

TEST(SpadeTest, LoadGraphFromFile) {
  const std::string path = ::testing::TempDir() + "/spade_load_test.txt";
  ASSERT_TRUE(SaveEdgeList(path, DenseRingLog()).ok());
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.LoadGraph(path).ok());
  EXPECT_EQ(spade.graph().NumVertices(), 7u);
  EXPECT_EQ(spade.graph().NumEdges(), 6u);
  std::remove(path.c_str());
}

TEST(SpadeTest, LoadGraphMissingFileFails) {
  Spade spade;
  EXPECT_FALSE(spade.LoadGraph("/nonexistent/graph.txt").ok());
}

TEST(SpadeTest, RejectsOutOfRangeInitialEdge) {
  Spade spade;
  std::vector<Edge> edges = {{0, 9, 1.0, 0}};
  EXPECT_FALSE(spade.BuildGraph(3, edges).ok());
}

// --- Edge grouping (Algorithm 3) ---

TEST(EdgeGroupingTest, BenignEdgesAreBuffered) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  // g(S_P) = 10; an edge between two degree-1 outsiders with tiny weight
  // cannot lift either endpoint to the community density.
  auto r = spade.InsertEdge({3, 6, 0.5, 20});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(spade.PendingBenignEdges(), 1u);
  // The cached community is returned unchanged (Lemma 4.4).
  Community c = std::move(r).value();
  std::sort(c.members.begin(), c.members.end());
  EXPECT_EQ(c.members, (std::vector<VertexId>{0, 1, 2}));
}

TEST(EdgeGroupingTest, UrgentEdgeFlushesBuffer) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  ASSERT_TRUE(spade.InsertEdge({3, 6, 0.5, 20}).ok());
  ASSERT_EQ(spade.PendingBenignEdges(), 1u);
  // An edge heavy enough to rival the community is urgent.
  ASSERT_TRUE(spade.InsertEdge({3, 6, 50.0, 21}).ok());
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state());
}

TEST(EdgeGroupingTest, DetectFlushesBuffer) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  ASSERT_TRUE(spade.InsertEdge({3, 6, 0.5, 20}).ok());
  ASSERT_TRUE(spade.InsertEdge({4, 6, 0.5, 21}).ok());
  EXPECT_EQ(spade.PendingBenignEdges(), 2u);
  spade.Detect();
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  EXPECT_EQ(spade.graph().NumEdges(), 8u);
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state());
}

TEST(EdgeGroupingTest, BufferCapForcesFlush) {
  SpadeOptions options;
  options.enable_edge_grouping = true;
  options.max_benign_buffer = 3;
  Spade spade(options);
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(10, DenseRingLog()).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        spade.InsertEdge({static_cast<VertexId>(3 + i),
                          static_cast<VertexId>(7 + (i % 3)), 0.01, 0})
            .ok());
  }
  // Buffer held at most 3; the next benign edge cannot extend it.
  ASSERT_TRUE(spade.InsertEdge({5, 8, 0.01, 0}).ok());
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
}

TEST(EdgeGroupingTest, IsBenignMatchesDefinition41) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  const auto& g = spade.graph();
  const double threshold = spade.peel_state().BestDensity();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Edge e = testing::RandomEdge(&rng, 7, 12);
    const bool benign = spade.IsBenign(e);
    const bool def = g.WeightedDegree(e.src) + e.weight < threshold &&
                     g.WeightedDegree(e.dst) + e.weight < threshold;
    EXPECT_EQ(benign, def) << "edge " << e.src << "->" << e.dst << " w "
                           << e.weight;
  }
}

// Lemma 4.3/4.4: inserting a benign edge never produces a *better* (denser)
// community, and its endpoints stay outside the detected community.
TEST(EdgeGroupingTest, BenignInsertionCannotImproveCommunity) {
  Rng rng(505);
  for (int trial = 0; trial < 20; ++trial) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    spade.TurnOnEdgeGrouping();
    std::vector<Edge> initial;
    for (int i = 0; i < 50; ++i) {
      initial.push_back(testing::RandomEdge(&rng, 15));
    }
    ASSERT_TRUE(spade.BuildGraph(15, initial).ok());
    const double before = spade.peel_state().BestDensity();

    Edge e = testing::RandomEdge(&rng, 15, 1);
    e.weight = 0.125;  // tiny weight: likely benign
    if (!spade.IsBenign(e)) continue;
    ASSERT_TRUE(spade.InsertEdge(e).ok());
    Community after = spade.Detect();  // forces the flush

    const bool endpoints_out =
        std::find(after.members.begin(), after.members.end(), e.src) ==
            after.members.end() &&
        std::find(after.members.begin(), after.members.end(), e.dst) ==
            after.members.end();
    // Lemma 4.4: endpoints outside S_P' or the density did not improve.
    EXPECT_TRUE(endpoints_out || after.density < before + 1e-9);
  }
}

// Lemma 4.4 at the service's publish cadence: a detector that never folds
// its benign buffer on the cadence reports exactly the community of one
// that does. Twin detectors take the same Grab1 stream; at every 16th edge
// one folds (Detect) and the other reads its peel state unfolded. FD is
// excluded: its edge weights depend on the graph at admission, so the two
// detectors' fold points would give them different graphs.
TEST(EdgeGroupingTest, UnfoldedCadenceReadMatchesFoldedDetect) {
  constexpr std::size_t kCadence = 16;
  std::size_t points = 0;
  std::size_t buffered_points = 0;
  for (const char* semantics : {"DG", "DW"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Workload w = BuildWorkload("Grab1", 0.0015, seed);
      Spade folding;
      Spade unfolded;
      for (Spade* spade : {&folding, &unfolded}) {
        spade->SetSemantics(MakeSemanticsByName(semantics));
        spade->TurnOnEdgeGrouping();
        ASSERT_TRUE(spade->BuildGraph(w.num_vertices, w.initial).ok());
      }
      const std::vector<Edge>& stream = w.stream.edges;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        ASSERT_TRUE(folding.ApplyEdge(stream[i]).ok());
        ASSERT_TRUE(unfolded.ApplyEdge(stream[i]).ok());
        if ((i + 1) % kCadence != 0) continue;
        if (unfolded.PendingBenignEdges() > 0) ++buffered_points;
        const Community a = folding.Detect();
        const Community b = unfolded.peel_state().DetectCommunity();
        std::vector<VertexId> am = a.members;
        std::vector<VertexId> bm = b.members;
        std::sort(am.begin(), am.end());
        std::sort(bm.begin(), bm.end());
        ASSERT_EQ(am, bm) << semantics << " seed " << seed << " edge " << i;
        ASSERT_EQ(a.density, b.density)
            << semantics << " seed " << seed << " edge " << i;
        ++points;
      }
    }
  }
  // The comparison must have exercised unfolded reads over real buffers.
  EXPECT_GT(points, 400u);
  EXPECT_GT(buffered_points, 50u);
}

// --- Deferred urgent edges (the service's apply path) ---

/// The community of a from-scratch peel of everything `spade` accepted:
/// its graph plus its benign buffer.
Community StaticCommunityWithBuffer(const Spade& spade) {
  DynamicGraph g = spade.graph();
  for (const Edge& e : spade.benign_buffer()) {
    EXPECT_TRUE(g.AddEdge(e.src, e.dst, e.weight).ok());
  }
  return PeelStatic(g).DetectCommunity();
}

/// Counts of one deferred-apply run.
struct DeferredRun {
  std::size_t reads = 0;           // edges that changed the peel state
  std::size_t buffered_reads = 0;  // ... with the buffer still non-empty
};

/// Streams `stream` into `spade` through ApplyEdgeDeferred. At every edge
/// that changed the peel state, the unfolded community must be the one a
/// static peel finds on graph + buffer (Lemma 4.4 under the deferral's
/// invariant). Ends with a Detect that must match PeelStatic: tie for tie
/// under integer weights; under continuous ones the incremental and static
/// paths sum degrees in different orders, so ulp-tied vertices may swap
/// and the sequence is validated as canonical without the tie-break.
DeferredRun CheckDeferredStream(Spade* spade, const std::vector<Edge>& stream,
                                bool integer_weights,
                                const std::string& label) {
  DeferredRun run;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Result<bool> changed = spade->ApplyEdgeDeferred(stream[i]);
    EXPECT_TRUE(changed.ok()) << label << " edge " << i;
    if (!changed.ok() || !changed.value()) continue;
    ++run.reads;
    if (spade->PendingBenignEdges() > 0) ++run.buffered_reads;
    const Community want = StaticCommunityWithBuffer(*spade);
    const Community got = spade->peel_state().DetectCommunity();
    std::vector<VertexId> wm = want.members;
    std::vector<VertexId> gm = got.members;
    std::sort(wm.begin(), wm.end());
    std::sort(gm.begin(), gm.end());
    EXPECT_EQ(wm, gm) << label << " edge " << i;
    EXPECT_NEAR(got.density, want.density,
                1e-9 * std::max(1.0, std::abs(want.density)))
        << label << " edge " << i;
    if (wm != gm) break;  // one divergence says it all
  }
  spade->Detect();
  EXPECT_EQ(spade->PendingBenignEdges(), 0u);
  SCOPED_TRACE(label);
  const PeelState reference = PeelStatic(spade->graph());
  if (integer_weights) {
    testing::ExpectStateEquals(reference, spade->peel_state());
  } else {
    testing::ValidateCanonicalSequence(spade->graph(), spade->peel_state(),
                                       1e-9, /*check_tie_break=*/false);
  }
  EXPECT_NEAR(reference.BestDensity(), spade->peel_state().BestDensity(),
              1e-9 * std::max(1.0, reference.BestDensity()));
  return run;
}

TEST(DeferredGroupingTest, UrgentReadsMatchStaticPeel) {
  DeferredRun total;
  for (const char* semantics : {"DG", "DW"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Workload w = BuildWorkload("Grab1", 0.0003, seed);
      Spade spade;
      spade.SetSemantics(MakeSemanticsByName(semantics));
      spade.TurnOnEdgeGrouping();
      ASSERT_TRUE(spade.BuildGraph(w.num_vertices, w.initial).ok());
      const std::string name = semantics;
      const DeferredRun run =
          CheckDeferredStream(&spade, w.stream.edges,
                              /*integer_weights=*/name == "DG",
                              name + " seed " + std::to_string(seed));
      total.reads += run.reads;
      total.buffered_reads += run.buffered_reads;
    }
  }
  // Urgent edges must have been reordered over live buffers, not only
  // into empty ones.
  EXPECT_GT(total.reads, 1000u);
  EXPECT_GT(total.buffered_reads, 1000u);
}

// A heavy legitimate clique (a "whale") far above everything else: edges
// touching its members are urgent, the background is benign, so almost
// every urgent edge arrives over a long buffer.
TEST(DeferredGroupingTest, UrgentReadsMatchStaticPeelAroundWhale) {
  constexpr std::size_t kVertices = 600;
  constexpr VertexId kWhale = 8;  // members 0..7
  Rng rng(4242);
  std::vector<Edge> initial;
  for (VertexId a = 0; a < kWhale; ++a) {
    for (VertexId b = a + 1; b < kWhale; ++b) {
      initial.push_back({a, b, 40.0 + 20.0 * rng.NextDouble(), 0});
    }
  }
  const auto background = [&rng] {
    const auto s = static_cast<VertexId>(
        kWhale + rng.NextBounded(kVertices - kWhale));
    auto d = static_cast<VertexId>(
        kWhale + rng.NextBounded(kVertices - kWhale));
    while (d == s) {
      d = static_cast<VertexId>(kWhale + rng.NextBounded(kVertices - kWhale));
    }
    return Edge{s, d, 0.5 + 4.0 * rng.NextDouble(), 0};
  };
  for (int i = 0; i < 1500; ++i) initial.push_back(background());
  std::vector<Edge> stream;
  for (int i = 0; i < 3000; ++i) {
    if (i % 25 == 0) {
      // A whale member pays (or is paid by) a background account.
      Edge e = background();
      e.src = static_cast<VertexId>(rng.NextBounded(kWhale));
      if (i % 50 == 0) std::swap(e.src, e.dst);
      stream.push_back(e);
    } else {
      stream.push_back(background());
    }
  }
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(kVertices, initial).ok());
  const DeferredRun run = CheckDeferredStream(&spade, stream, /*integer_weights=*/false, "whale");
  EXPECT_GT(run.reads, 100u);
  EXPECT_GT(run.buffered_reads, 100u);
}

// The deferral's two outcomes on one small graph: an urgent edge away
// from the buffered vertices keeps the buffer; an urgent edge that lifts
// a vertex with buffered mass to the threshold folds it.
TEST(DeferredGroupingTest, UrgentEdgeKeepsOrFoldsBuffer) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  spade.TurnOnEdgeGrouping();
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  // g(S_P) = 10. Vertex 3 (weighted degree 1) gets 0.5 of buffered mass.
  Result<bool> changed = spade.ApplyEdgeDeferred({3, 6, 0.5, 20});
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed.value());
  ASSERT_EQ(spade.PendingBenignEdges(), 1u);

  // Urgent (ring member 0 is at the threshold), but neither endpoint has
  // pending mass: reordered alone, the buffer stays.
  changed = spade.ApplyEdgeDeferred({5, 0, 2.0, 21});
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(spade.PendingBenignEdges(), 1u);
  EXPECT_EQ(spade.graph().NumEdges(), 7u);

  // Urgent, and it lifts vertex 3 to 1 + 9 + 0.5 >= 10: the buffer folds.
  changed = spade.ApplyEdgeDeferred({3, 0, 9.0, 22});
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(spade.PendingBenignEdges(), 0u);
  EXPECT_EQ(spade.graph().NumEdges(), 9u);
  testing::ExpectStateEquals(PeelStatic(spade.graph()), spade.peel_state());
}

TEST(SpadeTest, CumulativeStatsAccumulate) {
  Spade spade;
  spade.SetSemantics(MakeDG());
  ASSERT_TRUE(spade.BuildGraph(7, DenseRingLog()).ok());
  ASSERT_TRUE(spade.InsertEdge({3, 5, 1.0, 0}).ok());
  ASSERT_TRUE(spade.InsertEdge({4, 6, 1.0, 0}).ok());
  EXPECT_GT(spade.cumulative_stats().affected_vertices, 0u);
  spade.ResetStats();
  EXPECT_EQ(spade.cumulative_stats().affected_vertices, 0u);
}

}  // namespace
}  // namespace spade
