// Columnar storage layer (awaiting removal with Relation's columnar
// state): dictionary round-trips, empty segments, and the determinism
// anchor — a compacted segment depends only on the tuple SET, never on
// the insert/erase history that produced it (docs/STORAGE.md).

#include "storage/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "storage/relation.h"

namespace park {
namespace {

Tuple T2(int64_t a, int64_t b) { return Tuple{Value::Int(a), Value::Int(b)}; }

TEST(ColumnDictionaryTest, RoundTripsCodesAndValues) {
  // Unsorted, duplicate-heavy input: FromValues sorts and dedups.
  std::vector<Value> values = {Value::Int(7), Value::Int(3), Value::Int(7),
                               Value::Int(1), Value::Int(3), Value::Int(9)};
  ColumnDictionary dict = ColumnDictionary::FromValues(values);
  ASSERT_EQ(dict.size(), 4u);  // {1, 3, 7, 9}
  for (uint32_t code = 0; code < dict.size(); ++code) {
    auto back = dict.CodeFor(dict.ValueFor(code));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, code);
  }
  // Codes are ranks: code order == value order.
  for (uint32_t code = 0; code + 1 < dict.size(); ++code) {
    EXPECT_TRUE(dict.ValueFor(code) < dict.ValueFor(code + 1));
  }
  EXPECT_FALSE(dict.CodeFor(Value::Int(2)).has_value());
  EXPECT_FALSE(dict.CodeFor(Value::Int(100)).has_value());
}

TEST(ColumnDictionaryTest, EmptyDictionary) {
  ColumnDictionary dict = ColumnDictionary::FromValues({});
  EXPECT_TRUE(dict.empty());
  EXPECT_FALSE(dict.CodeFor(Value::Int(0)).has_value());
}

TEST(SegmentTest, EmptySegment) {
  Segment seg = Segment::Build(2, {});
  EXPECT_EQ(seg.num_rows(), 0u);
  EXPECT_TRUE(seg.column(0).dictionary().empty());
  EXPECT_TRUE(seg.column(1).dictionary().empty());
}

TEST(SegmentTest, ZeroArityRelation) {
  Relation rel(0);
  rel.Insert(Tuple{});
  rel.CompactColumnar();
  ASSERT_NE(rel.segment(), nullptr);
  EXPECT_EQ(rel.segment()->num_rows(), 1u);
  EXPECT_EQ(rel.segment()->arity(), 0);
}

// Renders a compacted relation's segment as a portable byte string:
// per-column dictionary sizes and the row-major code matrix in segment
// row order. Codes are value ranks, so equal renderings mean equal
// decoded contents. Two relations with the same tuple set must render
// identically whatever history produced them.
std::string RenderSegment(const Relation& rel) {
  if (rel.segment() == nullptr) return "<none>";
  std::string out;
  const Segment& seg = *rel.segment();
  for (int c = 0; c < seg.arity(); ++c) {
    out += "d" + std::to_string(seg.column(c).dictionary().size()) + ";";
  }
  for (uint32_t r = 0; r < seg.num_rows(); ++r) {
    out += "(";
    for (int c = 0; c < seg.arity(); ++c) {
      out += std::to_string(seg.column(c).code(r)) + ",";
    }
    out += ")";
  }
  return out;
}

TEST(SegmentTest, CompactionIsHistoryIndependent) {
  // Same final set {(i, i%3) : i in [0,30), i odd} reached three ways:
  // straight inserts; inserts + erases of the evens; inserts in reverse
  // with interleaved compactions (deltas + tombstones live at compaction
  // points).
  Relation a(2);
  for (int64_t i = 1; i < 30; i += 2) a.Insert(T2(i, i % 3));
  a.CompactColumnar();

  Relation b(2);
  for (int64_t i = 0; i < 30; ++i) b.Insert(T2(i, i % 3));
  b.CompactColumnar();
  for (int64_t i = 0; i < 30; i += 2) b.Erase(T2(i, i % 3));
  b.CompactColumnar();

  Relation c(2);
  for (int64_t i = 29; i >= 1; i -= 2) {
    c.Insert(T2(i, i % 3));
    if (i % 7 == 1) c.CompactColumnar();  // interleave delta compactions
  }
  c.CompactColumnar();

  const std::string rendered = RenderSegment(a);
  EXPECT_EQ(rendered, RenderSegment(b));
  EXPECT_EQ(rendered, RenderSegment(c));
  EXPECT_EQ(a.segment_rows(), 15u);
  EXPECT_EQ(b.segment_rows(), 15u);
  EXPECT_EQ(c.segment_rows(), 15u);
}

TEST(SegmentTest, DeltaAndTombstonesMergeAtCompaction) {
  Relation rel(2);
  for (int64_t i = 0; i < 10; ++i) rel.Insert(T2(i, 0));
  rel.CompactColumnar();
  EXPECT_FALSE(rel.ColumnarDirty());
  EXPECT_EQ(rel.segment_rows(), 10u);

  // Mutations between compaction points dirty the view but leave the
  // built segment untouched.
  rel.Insert(T2(100, 0));
  rel.Erase(T2(3, 0));
  EXPECT_TRUE(rel.ColumnarDirty());
  EXPECT_EQ(rel.segment_rows(), 10u);

  const uint64_t before = rel.compactions();
  rel.CompactColumnar();
  EXPECT_EQ(rel.compactions(), before + 1);
  EXPECT_FALSE(rel.ColumnarDirty());
  EXPECT_EQ(rel.segment_rows(), 10u);  // +1 insert, -1 erase

  // The merged segment equals a from-scratch build of the same set.
  Relation fresh(2);
  rel.ForEach([&](std::span<const Value> t) { fresh.Insert(t); });
  fresh.CompactColumnar();
  EXPECT_EQ(RenderSegment(rel), RenderSegment(fresh));
}

TEST(SegmentTest, CompactIsNoOpWhenClean) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.CompactColumnar();
  const uint64_t count = rel.compactions();
  rel.CompactColumnar();  // already compact: must not rebuild
  rel.CompactColumnar();
  EXPECT_EQ(rel.compactions(), count);
}

}  // namespace
}  // namespace park
