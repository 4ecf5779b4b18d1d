// IInterpretation: the "intermediate interpretation" of paper §4.2 — a set
// of unmarked atoms (always exactly the original database instance D; the
// fixpoint computation never changes I°) plus sets of atoms marked `+` and
// `-`, together with the validity relation for all four literal kinds and
// provenance bookkeeping for conflict construction.

#ifndef PARK_ENGINE_INTERPRETATION_H_
#define PARK_ENGINE_INTERPRETATION_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "engine/rule_grounding.h"
#include "storage/atom_table.h"
#include "storage/database.h"

namespace park {

/// The provenance of one marked atom: the groundings recorded as deriving
/// it, in the order they were first recorded, as GroundingViews into the
/// interpretation's provenance store (valid until ClearMarks). An atom
/// with no provenance gives an empty range.
class ProvenanceRange {
 public:
  /// One entry of a per-atom list: a grounding's id in the sign's store
  /// and the next entry (kEnd ends the list).
  struct Link {
    uint32_t grounding;
    uint32_t next;
  };
  static constexpr uint32_t kEnd = UINT32_MAX;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = GroundingView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = GroundingView;

    const_iterator() = default;
    const_iterator(const GroundingSet* groundings,
                   const std::vector<Link>* links, uint32_t link)
        : groundings_(groundings), links_(links), link_(link) {}
    GroundingView operator*() const {
      return (*groundings_)[(*links_)[link_].grounding];
    }
    const_iterator& operator++() {
      link_ = (*links_)[link_].next;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.link_ == b.link_;
    }

   private:
    const GroundingSet* groundings_ = nullptr;
    const std::vector<Link>* links_ = nullptr;
    uint32_t link_ = kEnd;
  };

  ProvenanceRange() = default;
  ProvenanceRange(const GroundingSet* groundings,
                  const std::vector<Link>* links, uint32_t first)
      : groundings_(groundings), links_(links), first_(first) {}

  const_iterator begin() const {
    return const_iterator(groundings_, links_, first_);
  }
  const_iterator end() const {
    return const_iterator(groundings_, links_, kEnd);
  }
  bool empty() const { return first_ == kEnd; }
  /// The number of groundings; walks the list.
  size_t size() const {
    return static_cast<size_t>(std::distance(begin(), end()));
  }

 private:
  const GroundingSet* groundings_ = nullptr;
  const std::vector<Link>* links_ = nullptr;
  uint32_t first_ = kEnd;
};

/// The three stores of an i-interpretation: I°, I⁺ and I⁻.
enum class MarkStore { kUnmarked, kPlus, kMinus };

/// Literal validity per §4.2 (conditions) and §4.3 (events), the one copy
/// of the table. `in(store)` says whether the literal's atom is in that
/// store; it is called lazily, for only the stores the answer needs.
///  - kPositive:    atom ∈ I° or +atom ∈ I⁺
///  - kNegated:     -atom ∈ I⁻, or (atom ∉ I° and +atom ∉ I⁺)
///  - kEventInsert: +atom ∈ I⁺
///  - kEventDelete: -atom ∈ I⁻
template <class In>
bool LiteralHolds(LiteralKind kind, In in) {
  switch (kind) {
    case LiteralKind::kPositive:
      return in(MarkStore::kUnmarked) || in(MarkStore::kPlus);
    case LiteralKind::kNegated:
      return in(MarkStore::kMinus) ||
             (!in(MarkStore::kUnmarked) && !in(MarkStore::kPlus));
    case LiteralKind::kEventInsert:
      return in(MarkStore::kPlus);
    case LiteralKind::kEventDelete:
      return in(MarkStore::kMinus);
  }
  return false;
}

/// An i-interpretation I = I° ∪ I⁺ ∪ I⁻ over a fixed base database.
///
/// The base (I°) is borrowed and never mutated; marked atoms accumulate via
/// AddMarked and are discarded wholesale by ClearMarks (the "restart from
/// I°" step of the Δ operator). The class also records, for marked atoms,
/// which rule groundings derived them — used to build conflict sides when
/// a stale derivation clashes with a current one (see DESIGN.md §2). It
/// holds what its callers record (RecordProvenance, AddMarked).
///
/// Provenance is stored flat, per sign: a GroundingSet holds each
/// grounding once (a grounding has exactly one head atom), an AtomTable
/// keyed on the stored marks numbers the atoms, and each atom's groundings
/// are a list of grounding ids. ClearMarks empties all three and keeps
/// their memory for the next round.
class IInterpretation {
 public:
  /// `base` must outlive this interpretation.
  explicit IInterpretation(const Database* base);

  IInterpretation(const IInterpretation&) = delete;
  IInterpretation& operator=(const IInterpretation&) = delete;
  IInterpretation(IInterpretation&&) = default;
  /// Retires the mark stores into this thread's relation pool
  /// (Database::Retire).
  ~IInterpretation();

  const Database& base() const { return *base_; }
  const Database& plus() const { return plus_; }
  const Database& minus() const { return minus_; }

  /// Whether `atom` makes a literal of `kind` valid in I (LiteralHolds).
  bool IsValid(const GroundAtom& atom, LiteralKind kind) const {
    return LiteralHolds(kind, [&](MarkStore store) {
      return Store(store).Contains(atom);
    });
  }

  /// I°, I⁺ or I⁻.
  const Database& Store(MarkStore store) const {
    switch (store) {
      case MarkStore::kUnmarked:
        return *base_;
      case MarkStore::kPlus:
        return plus_;
      case MarkStore::kMinus:
        return minus_;
    }
    return *base_;
  }

  bool HasPlus(const GroundAtom& atom) const { return plus_.Contains(atom); }
  bool HasMinus(const GroundAtom& atom) const { return minus_.Contains(atom); }
  bool HasUnmarked(const GroundAtom& atom) const {
    return base_->Contains(atom);
  }

  /// Marks `±atom` unless already marked, and returns the stored row
  /// (stable until ClearMarks) and whether the mark is new. Records no
  /// provenance and does NOT check consistency — the caller (the Δ
  /// operator) decides whether a would-be-inconsistent Γ result is ever
  /// applied. A new mark probes the opposite store so that IsConsistent()
  /// stays exact, unless `can_clash` is false: the caller then vouches
  /// that `∓atom` is never marked (its predicate lies outside the run's
  /// clash scope, DerivationScope).
  std::pair<std::span<const Value>, bool> Mark(ActionKind action,
                                              AtomView atom,
                                              bool can_clash = true);

  /// Records `by` as one of the groundings that derived `±atom`, once.
  /// `±atom` must be marked.
  void RecordProvenance(ActionKind action, AtomView atom, GroundingView by);

  /// Mark plus RecordProvenance. Returns true if the marked atom is new.
  bool AddMarked(ActionKind action, const GroundAtom& atom, GroundingView by);

  /// All groundings recorded as deriving `±atom` since the last
  /// ClearMarks; empty if none. During a ParkStepper run, provenance is
  /// present for the predicates with heads of both signs in P_U (the only
  /// ones a conflict can be built for, docs/SEMANTICS.md "Conflicts"), and
  /// for all predicates under ParkOptions::record_provenance.
  ProvenanceRange Provenance(ActionKind action, AtomView atom) const;
  ProvenanceRange Provenance(ActionKind action, const GroundAtom& atom) const {
    return Provenance(action, atom.view());
  }

  /// Discards all marked atoms and provenance: I becomes I° again. The
  /// mark stores' relations go to this thread's relation pool
  /// (Database::Recycle), where the next marks find them.
  void ClearMarks();

  /// True iff no atom is marked both + and -.
  bool IsConsistent() const { return inconsistent_count_ == 0; }

  size_t num_plus() const { return plus_.size(); }
  size_t num_minus() const { return minus_.size(); }

  /// incorp(I) (paper §4.2): (I° ∪ {a | +a ∈ I⁺}) − {a | -a ∈ I⁻}.
  /// Must only be called on a consistent interpretation. Consumes the
  /// marks: it copies the base's relations and moves I⁺'s in
  /// (Database::InsertAll, so a predicate with no relation in I° takes
  /// its I⁺ relation whole and leaves its row count as this thread's
  /// hint for the next mark store, Database::Pooled), then erases I⁻'s
  /// atoms; afterwards I is I° again, as after ClearMarks. Render
  /// anything read off the marks or the provenance first.
  Database Incorporate() &&;

  /// How incorp(I) differs from I°, equal to
  /// `Incorporate().DiffWith(base())`: only_in_this = {a | +a ∈ I⁺,
  /// a ∉ I°}, only_in_other = {a | -a ∈ I⁻, a ∈ I°}, both sorted the same
  /// way. O(|marks|): reads the marks and probes the base, never copies
  /// it. Must only be called on a consistent interpretation.
  Database::Diff MarkDiff() const;

  /// Renders like the paper's traces: "{p, +q, -a}", atoms sorted within
  /// each mark class (unmarked first, then +, then -).
  std::string ToString() const;

  /// Sorted rendered atoms, e.g. {"p", "+q", "-a"} — handy for EXPECT_EQ
  /// against the paper's step listings.
  std::vector<std::string> SortedLiteralStrings() const;

 private:
  /// One sign's provenance.
  struct SignProvenance {
    GroundingSet groundings;
    // By grounding id: the atom it was first recorded for.
    std::vector<uint32_t> owner;
    // Keyed on the stored marks, stable until ClearMarks.
    AtomTable atoms;
    // By atom id: the first and last entries of its list in `links`.
    std::vector<std::pair<uint32_t, uint32_t>> lists;
    std::vector<ProvenanceRange::Link> links;

    void Clear();
  };

  const Database* base_;
  Database plus_;
  Database minus_;
  SignProvenance plus_provenance_;
  SignProvenance minus_provenance_;
  // Number of atoms currently marked both ways.
  size_t inconsistent_count_ = 0;
};

}  // namespace park

#endif  // PARK_ENGINE_INTERPRETATION_H_
