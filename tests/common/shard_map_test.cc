// ShardMap boundary algebra + the slice arithmetic it exists to make exact:
// for any word-aligned partition of the universe, the whole-universe
// kernels run over per-shard slices (members ∩ range, full width — a shard
// backend's store) give integer partials that sum to the whole-universe
// count *exactly* — the foundation the gather byte-identity gate stands on.
#include "common/shard_map.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/bitset.h"
#include "common/hybrid_bitset.h"
#include "common/random.h"

namespace vexus {
namespace {

TEST(ShardMapTest, PartitionsWordsContiguously) {
  for (size_t users : {1u, 63u, 64u, 65u, 1000u, 278858u}) {
    for (size_t shards : {1u, 2u, 4u, 8u, 64u}) {
      ShardMap map(users, shards);
      const size_t words = (users + 63) / 64;
      ASSERT_GE(map.num_shards(), 1u);
      ASSERT_LE(map.num_shards(), std::max<size_t>(1, words));
      EXPECT_EQ(map.shard(0).user_begin, 0u);
      EXPECT_EQ(map.shard(0).word_begin, 0u);
      for (size_t s = 0; s < map.num_shards(); ++s) {
        const ShardMap::Range& r = map.shard(s);
        EXPECT_EQ(r.user_begin, r.word_begin * 64) << "word alignment";
        EXPECT_GT(r.word_end, r.word_begin) << "no empty shard";
        if (s + 1 < map.num_shards()) {
          EXPECT_EQ(map.shard(s + 1).word_begin, r.word_end);
          EXPECT_EQ(map.shard(s + 1).user_begin, r.user_end);
          EXPECT_EQ(r.user_end, r.word_end * 64);
        }
      }
      EXPECT_EQ(map.shard(map.num_shards() - 1).word_end, words);
      EXPECT_EQ(map.shard(map.num_shards() - 1).user_end, users);
    }
  }
}

TEST(ShardMapTest, IsPureFunctionOfInputs) {
  ShardMap a(278858, 8), b(278858, 8);
  EXPECT_EQ(a, b);
}

TEST(ShardMapTest, ClampsShardCountToWordCount) {
  ShardMap tiny(10, 16);  // one word of universe → one shard
  EXPECT_EQ(tiny.num_shards(), 1u);
  ShardMap two(128, 100);  // two words → at most two shards
  EXPECT_EQ(two.num_shards(), 2u);
  ShardMap zero(0, 4);
  EXPECT_EQ(zero.num_shards(), 1u);
  EXPECT_EQ(zero.shard(0).num_words(), 0u);
}

TEST(ShardMapTest, UniverseBeyond32BitIdsIsFatal) {
  // Range bounds are uint32_t; the largest 32-bit universe keeps its tail.
  ShardMap largest(0xffffffffu, 2);
  EXPECT_EQ(largest.shard(1).user_end, 0xffffffffu);
  ASSERT_DEATH({ ShardMap too_big(size_t{1} << 32, 1); }, "32-bit user ids");
}

Bitset RandomBitset(size_t universe, double density, Rng* rng) {
  Bitset b(universe);
  for (size_t i = 0; i < universe; ++i) {
    if (rng->UniformDouble() < density) b.Set(i);
  }
  return b;
}

/// `b` restricted to the shard's users, at full universe width.
Bitset Slice(const Bitset& b, const ShardMap::Range& r) {
  Bitset out(b.size());
  for (size_t u = r.user_begin; u < r.user_end; ++u) {
    if (b.Test(u)) out.Set(u);
  }
  return out;
}

TEST(ShardMapTest, BitsetRangePartialsSumToWholeCounts) {
  Rng rng(1234);
  const size_t universe = 5000;
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ShardMap map(universe, shards);
    Bitset a = RandomBitset(universe, 0.3, &rng);
    Bitset b = RandomBitset(universe, 0.2, &rng);
    Bitset mask = RandomBitset(universe, 0.5, &rng);
    Bitset whole_union, whole_masked;
    size_t whole_uc = whole_union.AssignUnionCount(a, b);
    size_t whole_mc = whole_masked.AssignUnionMaskedCount(a, b, mask);

    size_t count = 0, inter = 0, andnot = 0, uc = 0, mc = 0;
    for (size_t s = 0; s < map.num_shards(); ++s) {
      const ShardMap::Range& r = map.shard(s);
      Bitset sa = Slice(a, r), sb = Slice(b, r), smask = Slice(mask, r);
      Bitset part_union, part_masked;
      count += sa.Count();
      inter += sa.IntersectCount(sb);
      andnot += sa.CountAndNot(sb);
      uc += part_union.AssignUnionCount(sa, sb);
      mc += part_masked.AssignUnionMaskedCount(sa, sb, smask);
      EXPECT_EQ(part_union, Slice(whole_union, r));
      EXPECT_EQ(part_masked, Slice(whole_masked, r));
    }
    EXPECT_EQ(count, a.Count());
    EXPECT_EQ(inter, a.IntersectCount(b));
    EXPECT_EQ(andnot, a.CountAndNot(b));
    EXPECT_EQ(uc, whole_uc);
    EXPECT_EQ(mc, whole_mc);
  }
}

TEST(ShardMapTest, HybridRangePartialsMatchBothForms) {
  Rng rng(77);
  const size_t universe = 4096;
  ShardMap map(universe, 4);
  Bitset exclude = RandomBitset(universe, 0.4, &rng);
  // One sparse set (well under universe/8) and one dense set.
  Bitset sparse_src = RandomBitset(universe, 0.02, &rng);
  Bitset dense_src = RandomBitset(universe, 0.6, &rng);
  for (const Bitset* src : {&sparse_src, &dense_src}) {
    HybridBitset h = HybridBitset::FromBitset(*src);
    size_t andnot = 0;
    std::vector<uint32_t> walked;
    for (size_t s = 0; s < map.num_shards(); ++s) {
      const ShardMap::Range& r = map.shard(s);
      std::vector<uint32_t> ids;
      h.ForEachInRange(r.word_begin, r.word_end,
                       [&](uint32_t id) { ids.push_back(id); });
      walked.insert(walked.end(), ids.begin(), ids.end());
      HybridBitset slice = HybridBitset::FromSortedIds(universe, ids);
      EXPECT_EQ(slice.ToBitset(), Slice(*src, r));
      andnot += slice.CountAndNot(exclude);
    }
    EXPECT_EQ(andnot, h.CountAndNot(exclude));
    EXPECT_EQ(walked, h.ToVector());
  }
}

}  // namespace
}  // namespace vexus
