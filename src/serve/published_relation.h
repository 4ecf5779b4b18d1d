// PublishedRelation: the form in which a Session serves one relation to
// its snapshots (docs/SERVING.md, "Snapshot semantics").
//
// A published relation is a base run plus an overlay, both immutable:
//
//   - the base run holds the relation's rows as of its build, sorted, in
//     one flat Value[arity] array behind a whole-row open-addressing
//     probe;
//   - the overlay holds what commits changed since: the added rows,
//     sorted, none of them in the base, and the tombstones, the sorted
//     indexes of the base rows deleted since.
//
// A commit derives each touched relation's next published form from the
// current one and the commit's diff (CommitReport::inserted/deleted).
// The base is shared and only the overlay is rebuilt, at
// O(|overlay| + |diff| log |diff|). Once the overlay holds more than
// 1/kFoldDivisor of the base's rows, it is folded into a new base,
// O(|R|), which the commits that grew the overlay amortise. Only a
// Session's open, its LoadFacts and a fold build a base in full; nothing
// here reads the Relation after that, so a published relation stays
// readable after any later commit and after the Session is gone.

#ifndef PARK_SERVE_PUBLISHED_RELATION_H_
#define PARK_SERVE_PUBLISHED_RELATION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/ground_atom.h"
#include "storage/relation.h"

namespace park {
namespace serve_internal {

/// Immutable sorted, duplicate-free rows with a whole-row probe.
class BaseRun {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// `values` holds `num_rows` rows of `arity` values each, sorted
  /// lexicographically and duplicate-free.
  BaseRun(int arity, uint32_t num_rows, std::vector<Value> values);

  uint32_t num_rows() const { return num_rows_; }
  const Value* row(uint32_t r) const {
    return values_.data() + static_cast<size_t>(r) * arity_;
  }

  /// The index of the row equal to `args[0..arity)`, or kAbsent.
  uint32_t Find(const Value* args) const;

 private:
  size_t arity_;
  uint32_t num_rows_;
  std::vector<Value> values_;  // row-major, num_rows_ * arity_
  // Power-of-two sized, linear probing, at most half full; entries are
  // row + 1 (0 = empty).
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
};

class PublishedRelation {
 public:
  /// The overlay is folded into a new base once it holds more than
  /// 1/kFoldDivisor as many rows (added plus tombstoned) as the base.
  static constexpr size_t kFoldDivisor = 16;

  /// Every row of `relation` as a base, with an empty overlay.
  static std::shared_ptr<const PublishedRelation> Build(
      const Relation& relation);

  /// The empty relation of `arity`.
  static std::shared_ptr<const PublishedRelation> Empty(int arity);

  /// This relation with `inserted` added and `deleted` removed, as one
  /// commit's diff lists them: atoms of this relation's predicate, in any
  /// order and without repeats, `inserted` absent from this relation and
  /// `deleted` present in it. Shares this relation's base unless the
  /// grown overlay is folded.
  std::shared_ptr<const PublishedRelation> WithDiff(
      std::span<const GroundAtom* const> inserted,
      std::span<const GroundAtom* const> deleted) const;

  int arity() const { return arity_; }
  size_t size() const {
    return base_->num_rows() - tombstones_.size() + num_added_;
  }

  /// Whole-row membership of `args[0..arity)`.
  bool Contains(const Value* args) const;

  const BaseRun& base() const { return *base_; }
  /// True iff base row `r` was deleted since the base was built.
  bool Tombstoned(uint32_t r) const {
    return std::binary_search(tombstones_.begin(), tombstones_.end(), r);
  }
  uint32_t num_added() const { return num_added_; }
  const Value* added_row(uint32_t i) const {
    return added_.data() + static_cast<size_t>(i) * arity_;
  }

  /// Invokes `fn(const Value* row)` for every row: the base's live rows,
  /// then the added ones, each in sorted order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    ForEachLiveBaseRow(fn);
    for (uint32_t i = 0; i < num_added_; ++i) fn(added_row(i));
  }

 private:
  PublishedRelation(int arity, std::shared_ptr<const BaseRun> base)
      : arity_(arity), base_(std::move(base)) {}

  /// Invokes `fn(const Value* row)` for every base row not tombstoned,
  /// in order.
  template <typename Fn>
  void ForEachLiveBaseRow(Fn&& fn) const {
    auto tomb = tombstones_.begin();
    for (uint32_t r = 0; r < base_->num_rows(); ++r) {
      if (tomb != tombstones_.end() && *tomb == r) {
        ++tomb;
        continue;
      }
      fn(base_->row(r));
    }
  }

  /// Merges the base's live rows with the added rows into a new base and
  /// empties the overlay.
  void Fold();

  int arity_;
  std::shared_ptr<const BaseRun> base_;
  std::vector<Value> added_;  // row-major, num_added_ * arity_, sorted
  uint32_t num_added_ = 0;
  std::vector<uint32_t> tombstones_;  // base row indexes, sorted
};

}  // namespace serve_internal
}  // namespace park

#endif  // PARK_SERVE_PUBLISHED_RELATION_H_
