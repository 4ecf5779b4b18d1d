// GroundAtom: a fully instantiated atom `p(c1, ..., cn)` — a row together
// with the predicate it belongs to. Database instances and i-interpretations
// are sets of GroundAtoms (the latter with +/- markings kept alongside).

#ifndef PARK_STORAGE_GROUND_ATOM_H_
#define PARK_STORAGE_GROUND_ATOM_H_

#include <algorithm>
#include <span>
#include <string>

#include "storage/tuple.h"

namespace park {

/// A borrowed ground atom: a predicate and its argument row, stored
/// elsewhere (a relation's tuple, a Γ section's Value arena). Valid while
/// that storage is; hashes and compares like the GroundAtom it names.
struct AtomView {
  PredicateId predicate = 0;
  std::span<const Value> args;

  size_t Hash() const {
    return HashCombine(static_cast<size_t>(predicate),
                       HashValues(args.data(), args.size()));
  }
  friend bool operator==(const AtomView& a, const AtomView& b) {
    return a.predicate == b.predicate &&
           std::equal(a.args.begin(), a.args.end(), b.args.begin(),
                      b.args.end());
  }
};

/// A ground (variable-free) atom. Value type: copyable, hashable, ordered
/// (by predicate id, then tuple).
class GroundAtom {
 public:
  GroundAtom() : predicate_(0) {}
  GroundAtom(PredicateId predicate, Tuple args)
      : predicate_(predicate), args_(std::move(args)) {}
  explicit GroundAtom(AtomView view)
      : predicate_(view.predicate), args_(view.args) {}

  PredicateId predicate() const { return predicate_; }
  const Tuple& args() const { return args_; }
  int arity() const { return args_.arity(); }
  AtomView view() const { return AtomView{predicate_, args_.span()}; }

  /// "p(a, b)" or "p" for propositional (0-ary) atoms.
  std::string ToString(const SymbolTable& table) const;

  size_t Hash() const {
    return HashCombine(static_cast<size_t>(predicate_), args_.Hash());
  }

  friend bool operator==(const GroundAtom& a, const GroundAtom& b) {
    return a.predicate_ == b.predicate_ && a.args_ == b.args_;
  }
  friend bool operator!=(const GroundAtom& a, const GroundAtom& b) {
    return !(a == b);
  }
  friend bool operator<(const GroundAtom& a, const GroundAtom& b) {
    if (a.predicate_ != b.predicate_) return a.predicate_ < b.predicate_;
    return a.args_ < b.args_;
  }

 private:
  PredicateId predicate_;
  Tuple args_;
};

/// Hash and equality of GroundAtom sets and maps that AtomViews probe.
struct GroundAtomHash {
  using is_transparent = void;
  size_t operator()(const GroundAtom& a) const { return a.Hash(); }
  size_t operator()(const AtomView& a) const { return a.Hash(); }
};

struct GroundAtomEq {
  using is_transparent = void;
  bool operator()(const GroundAtom& a, const GroundAtom& b) const {
    return a == b;
  }
  bool operator()(const AtomView& a, const GroundAtom& b) const {
    return a == b.view();
  }
  bool operator()(const GroundAtom& a, const AtomView& b) const {
    return a.view() == b;
  }
  bool operator()(const AtomView& a, const AtomView& b) const {
    return a == b;
  }
};

}  // namespace park

#endif  // PARK_STORAGE_GROUND_ATOM_H_
