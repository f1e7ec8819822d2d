// Differential and edge-case coverage for the one intersection kernel, the
// merge/gallop hybrid (intersect.h). It must emit exactly the (w, ea, eb)
// triples a naive nested loop finds, in ascending-w order, in both regimes
// — the contract the whole triangle path rests on.

#include "tkc/graph/intersect.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "tkc/util/random.h"

namespace tkc {
namespace {

using Triple = std::tuple<VertexId, EdgeId, EdgeId>;

std::vector<Triple> RunHybrid(const std::vector<Neighbor>& a,
                              const std::vector<Neighbor>& b,
                              IntersectStats* stats = nullptr,
                              size_t cutoff = kGallopCutoffRatio) {
  IntersectStats local;
  IntersectStats& s = stats ? *stats : local;
  std::vector<Triple> out;
  IntersectSortedHybrid(
      a.data(), a.data() + a.size(), b.data(), b.data() + b.size(), s,
      [&](VertexId w, EdgeId ea, EdgeId eb) { out.emplace_back(w, ea, eb); },
      cutoff);
  return out;
}

// Independent reference: every (a, b) pair compared, matches emitted in
// a's (ascending) order.
std::vector<Triple> NaiveIntersect(const std::vector<Neighbor>& a,
                                   const std::vector<Neighbor>& b) {
  std::vector<Triple> out;
  for (const Neighbor& x : a) {
    for (const Neighbor& y : b) {
      if (x.vertex == y.vertex) out.emplace_back(x.vertex, x.edge, y.edge);
    }
  }
  return out;
}

// Sorted list of n entries: vertices = base + i*stride, edges tagged with
// `tag` in the high bits so a-side and b-side ids are distinguishable.
std::vector<Neighbor> MakeList(uint32_t n, uint32_t base, uint32_t stride,
                               uint32_t tag) {
  std::vector<Neighbor> out(n);
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = Neighbor{base + i * stride, (tag << 24) | i};
  }
  return out;
}

std::vector<Neighbor> RandomSortedList(uint32_t n, uint32_t universe,
                                       uint32_t tag, Rng& rng) {
  std::vector<bool> member(universe, false);
  for (uint32_t i = 0; i < n; ++i) {
    member[static_cast<size_t>(rng.NextBounded(universe))] = true;
  }
  std::vector<Neighbor> out;
  uint32_t id = 0;
  for (uint32_t v = 0; v < universe; ++v) {
    if (member[v]) out.push_back(Neighbor{v, (tag << 24) | id++});
  }
  return out;
}

TEST(IntersectHybridTest, EmptyLists) {
  const std::vector<Neighbor> empty;
  const auto some = MakeList(5, 0, 2, 1);
  EXPECT_TRUE(RunHybrid(empty, empty).empty());
  EXPECT_TRUE(RunHybrid(empty, some).empty());
  EXPECT_TRUE(RunHybrid(some, empty).empty());
}

TEST(IntersectHybridTest, SingleElementLists) {
  const std::vector<Neighbor> one{Neighbor{7, 100}};
  const std::vector<Neighbor> hit{Neighbor{7, 200}};
  const std::vector<Neighbor> miss{Neighbor{8, 300}};
  EXPECT_EQ(RunHybrid(one, hit), (std::vector<Triple>{{7, 100, 200}}));
  EXPECT_TRUE(RunHybrid(one, miss).empty());
  // Single element against a long list: 1 vs 17+ engages the gallop path
  // (ratio 17 > 16); the emitted edge pairing must keep argument order.
  const auto longer = MakeList(40, 0, 1, 3);
  IntersectStats stats;
  const auto out = RunHybrid(one, longer, &stats);
  EXPECT_EQ(out, (std::vector<Triple>{{7, 100, (3u << 24) | 7}}));
  EXPECT_GT(stats.gallop_probes, 0u);
  EXPECT_EQ(stats.merge_steps, 0u);
}

TEST(IntersectHybridTest, CutoffStraddle) {
  // 64 vs 4 entries is ratio 16 — NOT over the cutoff (strict >), so the
  // merge runs; 65 vs 4 is ratio 16.25 — over, so the gallop runs. The
  // values returned must not change across the knee.
  const auto small = MakeList(4, 0, 16, 1);
  const auto at = MakeList(64, 0, 1, 2);
  const auto over = MakeList(65, 0, 1, 2);
  IntersectStats s_at, s_over;
  const auto out_at = RunHybrid(at, small, &s_at);
  const auto out_over = RunHybrid(over, small, &s_over);
  EXPECT_EQ(s_at.gallop_probes, 0u);
  EXPECT_GT(s_at.merge_steps, 0u);
  EXPECT_GT(s_over.gallop_probes, 0u);
  EXPECT_EQ(s_over.merge_steps, 0u);
  ASSERT_EQ(out_at.size(), 4u);
  ASSERT_EQ(out_over.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::get<0>(out_at[i]), std::get<0>(out_over[i]));
    // ea comes from the first range (the long one here), eb from the small.
    EXPECT_EQ(std::get<2>(out_at[i]), std::get<2>(out_over[i]));
  }
}

TEST(IntersectHybridTest, CutoffKnobSelectsRegime) {
  // Same 100:10 pair, knob swept: cutoff below the ratio forces gallop,
  // above forces merge, and the output never changes.
  const auto a = MakeList(100, 0, 1, 1);
  const auto b = MakeList(10, 0, 10, 2);
  IntersectStats gallop_stats, merge_stats;
  const auto out_gallop = RunHybrid(a, b, &gallop_stats, /*cutoff=*/4);
  const auto out_merge = RunHybrid(a, b, &merge_stats, /*cutoff=*/1000);
  EXPECT_EQ(out_gallop, out_merge);
  EXPECT_EQ(out_gallop.size(), 10u);
  EXPECT_GT(gallop_stats.gallop_probes, 0u);
  EXPECT_EQ(gallop_stats.merge_steps, 0u);
  EXPECT_GT(merge_stats.merge_steps, 0u);
  EXPECT_EQ(merge_stats.gallop_probes, 0u);
}

TEST(IntersectHybridTest, RandomDifferentialAgainstNaive) {
  // Cutoff 1 gallops on any length mismatch, kGallopCutoffRatio is the
  // production mix, and a cutoff above every list length never gallops.
  // Lengths are drawn independently, so skewed pairs come up at every
  // cutoff; both argument orders run, which pins the (ea, eb) pairing.
  constexpr size_t kNeverGallop = size_t{1} << 20;
  Rng rng(2012);
  IntersectStats gallop_total, merge_total;
  for (int round = 0; round < 200; ++round) {
    const uint32_t universe =
        16 + static_cast<uint32_t>(rng.NextBounded(256));
    const auto a = RandomSortedList(
        static_cast<uint32_t>(rng.NextBounded(universe)), universe, 1, rng);
    const auto b = RandomSortedList(
        static_cast<uint32_t>(rng.NextBounded(universe)), universe, 2, rng);
    const auto expect_ab = NaiveIntersect(a, b);
    const auto expect_ba = NaiveIntersect(b, a);
    for (size_t cutoff : {size_t{1}, kGallopCutoffRatio, kNeverGallop}) {
      IntersectStats stats;
      EXPECT_EQ(RunHybrid(a, b, &stats, cutoff), expect_ab)
          << "round " << round << " cutoff " << cutoff;
      EXPECT_EQ(RunHybrid(b, a, &stats, cutoff), expect_ba)
          << "round " << round << " cutoff " << cutoff << " (swapped)";
      if (cutoff == kNeverGallop) {
        EXPECT_EQ(stats.gallop_probes, 0u) << "round " << round;
        merge_total += stats;
      } else if (cutoff == 1) {
        gallop_total += stats;
      }
    }
  }
  // Both regimes really ran.
  EXPECT_GT(gallop_total.gallop_probes, 0u);
  EXPECT_GT(merge_total.merge_steps, 0u);
}

}  // namespace
}  // namespace tkc
