// Tests for IndexedMinHeap, including a randomized differential test against
// an ordered-set reference model.

#include "peel/indexed_heap.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace spade {
namespace {

TEST(HeapKeyTest, WeightThenIdOrdering) {
  EXPECT_TRUE(HeapKeyLess(1.0, 5, 2.0, 3));
  EXPECT_FALSE(HeapKeyLess(2.0, 3, 1.0, 5));
  EXPECT_TRUE(HeapKeyLess(1.0, 3, 1.0, 5));   // tie -> smaller id first
  EXPECT_FALSE(HeapKeyLess(1.0, 5, 1.0, 3));
  EXPECT_FALSE(HeapKeyLess(1.0, 4, 1.0, 4));  // irreflexive
}

TEST(IndexedMinHeapTest, PushPopOrder) {
  IndexedMinHeap h(10);
  h.Push(3, 5.0);
  h.Push(1, 2.0);
  h.Push(7, 9.0);
  h.Push(2, 2.0);  // ties with vertex 1; id 1 pops first
  EXPECT_EQ(h.size(), 4u);
  EXPECT_EQ(h.Pop(), 1u);
  EXPECT_EQ(h.Pop(), 2u);
  EXPECT_EQ(h.Pop(), 3u);
  EXPECT_EQ(h.Pop(), 7u);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedMinHeapTest, ContainsAndWeightOf) {
  IndexedMinHeap h(5);
  EXPECT_FALSE(h.Contains(2));
  h.Push(2, 4.5);
  EXPECT_TRUE(h.Contains(2));
  EXPECT_DOUBLE_EQ(h.WeightOf(2), 4.5);
  h.Pop();
  EXPECT_FALSE(h.Contains(2));
}

TEST(IndexedMinHeapTest, UpdateMovesBothDirections) {
  IndexedMinHeap h(5);
  h.Push(0, 1.0);
  h.Push(1, 2.0);
  h.Push(2, 3.0);
  h.Update(2, 0.5);  // decrease: becomes the top
  EXPECT_EQ(h.TopVertex(), 2u);
  h.Update(2, 10.0);  // increase: sinks to the bottom
  EXPECT_EQ(h.TopVertex(), 0u);
  EXPECT_EQ(h.Pop(), 0u);
  EXPECT_EQ(h.Pop(), 1u);
  EXPECT_EQ(h.Pop(), 2u);
}

TEST(IndexedMinHeapTest, AdjustIsRelative) {
  IndexedMinHeap h(3);
  h.Push(0, 5.0);
  h.Adjust(0, -2.0);
  EXPECT_DOUBLE_EQ(h.WeightOf(0), 3.0);
  h.Adjust(0, 1.0);
  EXPECT_DOUBLE_EQ(h.WeightOf(0), 4.0);
}

TEST(IndexedMinHeapTest, EraseMiddle) {
  IndexedMinHeap h(6);
  for (VertexId v = 0; v < 6; ++v) h.Push(v, static_cast<double>(v));
  h.Erase(3);
  EXPECT_FALSE(h.Contains(3));
  EXPECT_EQ(h.size(), 5u);
  EXPECT_EQ(h.Pop(), 0u);
  EXPECT_EQ(h.Pop(), 1u);
  EXPECT_EQ(h.Pop(), 2u);
  EXPECT_EQ(h.Pop(), 4u);
  EXPECT_EQ(h.Pop(), 5u);
}

TEST(IndexedMinHeapTest, EnsureCapacityPreservesContents) {
  IndexedMinHeap h(2);
  h.Push(0, 1.0);
  h.EnsureCapacity(100);
  h.Push(99, 0.5);
  EXPECT_EQ(h.Pop(), 99u);
  EXPECT_EQ(h.Pop(), 0u);
}

TEST(IndexedMinHeapTest, ResetClears) {
  IndexedMinHeap h(4);
  h.Push(1, 1.0);
  h.Reset(4);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.Contains(1));
}

// AssignAll replaces whatever the heap held with exactly [0, n): every id
// is present at its weight, ids past n are gone, the pop order is the
// canonical (weight, id) order, and the heap stays usable afterwards.
TEST(IndexedMinHeapTest, AssignAllHoldsExactlyTheAssignedIds) {
  Rng rng(4242);
  IndexedMinHeap h(40);
  h.Push(3, 7.0);
  h.Push(35, -1.0);
  for (const std::size_t n : {0u, 1u, 2u, 17u, 30u}) {
    std::vector<double> weights(n);
    for (auto& w : weights) w = static_cast<double>(rng.NextBounded(6));
    h.AssignAll(weights);
    ASSERT_EQ(h.size(), n);
    std::set<std::pair<double, VertexId>> model;
    for (std::size_t v = 0; v < n; ++v) {
      ASSERT_TRUE(h.Contains(static_cast<VertexId>(v)));
      EXPECT_DOUBLE_EQ(h.WeightOf(static_cast<VertexId>(v)), weights[v]);
      model.emplace(weights[v], static_cast<VertexId>(v));
    }
    EXPECT_EQ(h.Contains(3), n > 3);
    EXPECT_FALSE(h.Contains(35));
    h.Push(35, 2.5);
    model.emplace(2.5, 35);
    for (const auto& [w, v] : model) {
      ASSERT_DOUBLE_EQ(h.TopWeight(), w);
      ASSERT_EQ(h.Pop(), v);
    }
    EXPECT_TRUE(h.empty());
  }
}

// Differential test: random pushes/pops/updates/erases mirrored against a
// std::set<(weight, id)> reference model.
TEST(IndexedMinHeapTest, RandomizedAgainstReferenceModel) {
  constexpr std::size_t kUniverse = 64;
  Rng rng(2024);
  IndexedMinHeap h(kUniverse);
  std::set<std::pair<double, VertexId>> model;
  std::vector<double> weight(kUniverse, 0.0);
  std::vector<char> present(kUniverse, 0);

  for (int step = 0; step < 20000; ++step) {
    const auto v = static_cast<VertexId>(rng.NextBounded(kUniverse));
    switch (rng.NextBounded(4)) {
      case 0:  // push
        if (!present[v]) {
          const double w = static_cast<double>(rng.NextBounded(50));
          h.Push(v, w);
          model.emplace(w, v);
          weight[v] = w;
          present[v] = 1;
        }
        break;
      case 1:  // pop-min
        if (!model.empty()) {
          const auto [mw, mv] = *model.begin();
          ASSERT_EQ(h.TopVertex(), mv);
          ASSERT_DOUBLE_EQ(h.TopWeight(), mw);
          ASSERT_EQ(h.Pop(), mv);
          model.erase(model.begin());
          present[mv] = 0;
        }
        break;
      case 2:  // update
        if (present[v]) {
          const double w = static_cast<double>(rng.NextBounded(50));
          model.erase({weight[v], v});
          model.emplace(w, v);
          h.Update(v, w);
          weight[v] = w;
        }
        break;
      case 3:  // erase
        if (present[v]) {
          model.erase({weight[v], v});
          h.Erase(v);
          present[v] = 0;
        }
        break;
    }
    ASSERT_EQ(h.size(), model.size());
    ASSERT_EQ(h.Contains(v), static_cast<bool>(present[v]));
  }
  // Drain and confirm full agreement.
  while (!model.empty()) {
    ASSERT_EQ(h.Pop(), model.begin()->second);
    model.erase(model.begin());
  }
  EXPECT_TRUE(h.empty());
}

}  // namespace
}  // namespace spade
