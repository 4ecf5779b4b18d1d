// Conflicts (paper §4.2): a conflict is a maximal triple (a, ins, del)
// where `a` is a ground atom, `ins` is the set of rule groundings with
// valid bodies commanding +a, and `del` the set commanding -a.
//
// Conflicts are built from a Γ derivation list ("one step into the
// future"), restricted to non-blocked instances, and augmented with the
// provenance of marked atoms already in I — see DESIGN.md §2 for why both
// refinements are necessary and faithful, and why the semi-naive section
// of the inconsistent step is as good a list as the full Γ.
//
// A Conflict owns its groundings as flat rows (one Value array plus a
// rule and offset per grounding), so building a round's triples allocates
// per conflict, not per grounding; its sides read as GroundingViews.

#ifndef PARK_CORE_CONFLICT_H_
#define PARK_CORE_CONFLICT_H_

#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "engine/consequence.h"

namespace park {

/// How much of `conflicts(P, I)` is blocked per resolution round.
enum class BlockGranularity {
  /// Block the losing side of every conflict found in the round — the
  /// paper's main definition of `blocked(D, P, I, SELECT)`.
  kAllConflicts,
  /// Block the losing side of only the first conflict (atom-sorted), then
  /// restart — the paper's §4.2 refinement ("include only a non-empty part
  /// of conflicts into blocked"), which avoids blocking instances that
  /// later rounds would never find in conflict. More restarts, fewer
  /// unnecessarily blocked instances.
  ///
  /// "First" is the smallest clashing atom by GroundAtom order, which
  /// compares interned predicate and symbol ids, not names. Ids are handed
  /// out where a predicate or constant first appears in the rule and fact
  /// text, so reordering that text (even adding an inert rule in front)
  /// can change which conflict is resolved first, hence B and the number
  /// of restarts. The paper leaves the choice open; this order is kept.
  kFirstConflictOnly,
};

/// One side of a conflict: its groundings as GroundingViews into the
/// Conflict's storage, sorted and duplicate-free. Valid while the
/// Conflict lives and is not assigned to.
class ConflictSide {
 public:
  /// A grounding's rule and where its binding starts in the conflict's
  /// Value array; it ends where the next one starts.
  struct Ref {
    int rule;
    uint32_t offset;
    friend bool operator==(const Ref&, const Ref&) = default;
  };

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = GroundingView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = GroundingView;

    const_iterator() = default;
    const_iterator(const Ref* refs, const Value* values, size_t i)
        : refs_(refs), values_(values), i_(i) {}
    GroundingView operator*() const { return At(refs_, values_, i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++i_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const Ref* refs_ = nullptr;
    const Value* values_ = nullptr;
    size_t i_ = 0;
  };

  ConflictSide(const Ref* refs, size_t size, const Value* values)
      : refs_(refs), size_(size), values_(values) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  GroundingView operator[](size_t i) const { return At(refs_, values_, i); }
  const_iterator begin() const { return const_iterator(refs_, values_, 0); }
  const_iterator end() const { return const_iterator(refs_, values_, size_); }

 private:
  static GroundingView At(const Ref* refs, const Value* values, size_t i) {
    return GroundingView(refs[i].rule, {values + refs[i].offset,
                                        refs[i + 1].offset - refs[i].offset});
  }

  const Ref* refs_;  // size_ + 1: the last one only ends a binding
  size_t size_;
  const Value* values_;
};

/// One conflict triple (a, ins, del). Both sides are non-empty, sorted,
/// and duplicate-free. A Conflict is a self-contained value: it owns one
/// Value array holding every binding of both sides, inserters first, plus
/// a (rule, offset) reference per grounding, so it stays readable after
/// the round that built it (StepOutcome, observers) and compares by
/// content.
struct Conflict {
  Conflict() = default;
  /// Copies `inserters` and `deleters`, each sorted and duplicate-free,
  /// into the conflict's own storage.
  Conflict(GroundAtom atom, std::span<const GroundingView> inserters,
           std::span<const GroundingView> deleters);

  GroundAtom atom;

  /// The paper's `ins`: the groundings commanding +atom.
  ConflictSide inserters() const {
    return ConflictSide(refs_.data(), num_inserters_, values_.data());
  }
  /// The paper's `del`: the groundings commanding -atom.
  ConflictSide deleters() const {
    return ConflictSide(refs_.data() + num_inserters_,
                        refs_.empty() ? 0 : refs_.size() - 1 - num_inserters_,
                        values_.data());
  }

  /// "q(a): ins={(r1, [x <- a])} del={(r2, [x <- a])}"
  std::string ToString(const Program& program,
                       const SymbolTable& symbols) const;

  friend bool operator==(const Conflict&, const Conflict&) = default;

 private:
  std::vector<Value> values_;
  // One per grounding, inserters first, then a last one ending the
  // bindings; empty for a default-constructed conflict.
  std::vector<ConflictSide::Ref> refs_;
  size_t num_inserters_ = 0;
};

/// Builds conflicts(P, I) from the Γ section `gamma` computed against
/// `interp`: the full Γ, or the semi-naive section of a step of the
/// current round (DESIGN.md §2). One Conflict per clashing atom, sorted by
/// atom for determinism; with kFirstConflictOnly, only the smallest
/// clashing atom's. The clash-scope derivations are grouped by
/// (conflict, side) in one counting pass over the thread's flat atom
/// table; each group is merged with the atom's provenance where it has
/// any, sorted by (rule, binding) as views into the section's arena and
/// the provenance store, and copied once into the Conflict's own Value
/// array (docs/SEMANTICS.md "Conflicts").
std::vector<Conflict> BuildConflicts(
    GammaResult gamma, const IInterpretation& interp,
    BlockGranularity granularity = BlockGranularity::kAllConflicts);

}  // namespace park

#endif  // PARK_CORE_CONFLICT_H_
