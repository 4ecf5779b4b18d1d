#include "storage/relation_stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace park {
namespace {

/// Bucket for a value: its content hash folded onto the sketch width. The
/// Value hash is already well-mixed (util/hash.h); the masked low bits are
/// enough. Deterministic across runs — no seeding.
size_t BucketFor(const Value& v) {
  static_assert((RelationStats::kBuckets & (RelationStats::kBuckets - 1)) == 0,
                "bucket count must be a power of two");
  return v.Hash() & (RelationStats::kBuckets - 1);
}

}  // namespace

void RelationStats::OnInsert(std::span<const Value> row) {
  PARK_CHECK_EQ(row.size(), static_cast<size_t>(arity_))
      << "stats arity mismatch";
  if (sketches_.empty()) {
    sketches_.assign(static_cast<size_t>(arity_),
                     std::vector<uint32_t>(kBuckets, 0));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    ++sketches_[c][BucketFor(row[c])];
  }
  ++rows_;
}

void RelationStats::OnErase(std::span<const Value> row) {
  PARK_CHECK_EQ(row.size(), static_cast<size_t>(arity_))
      << "stats arity mismatch";
  PARK_CHECK_GT(rows_, 0u) << "erase from empty stats";
  for (size_t c = 0; c < row.size(); ++c) {
    uint32_t& bucket = sketches_[c][BucketFor(row[c])];
    PARK_CHECK_GT(bucket, 0u) << "stats sketch underflow";
    --bucket;
  }
  --rows_;
}

double RelationStats::DistinctEstimate(int column) const {
  PARK_CHECK(column >= 0 && column < arity_) << "stats column out of range";
  if (rows_ == 0) return 0;
  const std::vector<uint32_t>& sketch =
      sketches_[static_cast<size_t>(column)];
  size_t empty = 0;
  for (uint32_t count : sketch) {
    if (count == 0) ++empty;
  }
  double estimate;
  if (empty == 0) {
    // Fully loaded sketch: linear counting is undefined; report the
    // saturation ceiling (the formula's limit as empty -> 1 bucket).
    estimate = static_cast<double>(kBuckets) *
               std::log(static_cast<double>(kBuckets));
  } else {
    estimate = -static_cast<double>(kBuckets) *
               std::log(static_cast<double>(empty) /
                        static_cast<double>(kBuckets));
  }
  // Distinct values can never exceed the row count, nor drop below 1 for
  // a non-empty relation.
  return std::clamp(estimate, 1.0, static_cast<double>(rows_));
}

double RelationStats::SelectivityRows(int column) const {
  if (rows_ == 0) return 0;
  return static_cast<double>(rows_) / DistinctEstimate(column);
}

}  // namespace park
