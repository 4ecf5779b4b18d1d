// AtomTable: a reusable map from ground atoms, viewed where they are
// stored, to dense ids.
//
// The Δ loop groups a Γ section's derivations by head atom twice per
// inconsistent step: the clash test ORs each atom's signs together, and
// conflict construction finds each clashing atom's derivations. Both key
// on AtomViews into the section's arena, so nothing is copied, and both
// run once per step: a table that keeps its slots between uses allocates
// nothing once warm. The layout is Relation's row set: one
// open-addressing slot per atom holding its id and the low 32 bits of its
// mixed hash, power-of-two sized, probed linearly, at most half full.

#ifndef PARK_STORAGE_ATOM_TABLE_H_
#define PARK_STORAGE_ATOM_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/ground_atom.h"
#include "util/hash.h"

namespace park {

class AtomTable {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// Forgets every atom and keeps the memory.
  void Clear();
  /// Frees the memory.
  void Release();

  /// The id of `atom`; an absent atom is added with id size(). The atom's
  /// storage must outlive its entry.
  uint32_t Insert(const AtomView& atom) {
    return Emplace(atom, [](const AtomView& a) { return a; }).first;
  }
  /// The id of `atom` and whether it was absent. An absent atom is added
  /// with id size(), keyed by `store(atom)`: an equal view whose storage
  /// outlives the entry, made only when the atom is new.
  template <typename Store>
  std::pair<uint32_t, bool> Emplace(const AtomView& atom, Store store) {
    if (slots_.empty()) Grow();
    const uint32_t hash = SlotHash(atom);
    size_t i = Probe(atom, hash);
    if (slots_[i].id != kAbsent) return {slots_[i].id, false};
    if ((atoms_.size() + 1) * 2 > slots_.size()) {
      Grow();
      i = Probe(atom, hash);
    }
    const uint32_t id = static_cast<uint32_t>(atoms_.size());
    slots_[i] = Slot{id, hash};
    // Pushed as an lvalue, as Insert always was: sharing the rvalue
    // push_back instantiation with ApplyDerivations' hot loop got that
    // loop's push_back out-lined by GCC, and closure_eval's apply slower.
    const AtomView stored = store(atom);
    atoms_.push_back(stored);
    return {id, true};
  }
  /// The id of `atom`, or kAbsent.
  uint32_t Find(const AtomView& atom) const {
    if (slots_.empty()) return kAbsent;
    return slots_[Probe(atom, SlotHash(atom))].id;
  }

  size_t size() const { return atoms_.size(); }
  AtomView atom(uint32_t id) const { return atoms_[id]; }

  /// Bytes held by the table's buffers.
  size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           atoms_.capacity() * sizeof(AtomView);
  }

 private:
  struct Slot {
    uint32_t id = kAbsent;
    uint32_t hash = 0;
  };

  static uint32_t SlotHash(const AtomView& atom) {
    return static_cast<uint32_t>(MixHash(atom.Hash()));
  }
  /// The slot holding `atom`, or the empty slot ending its probe run.
  /// `slots_` is non-empty.
  size_t Probe(const AtomView& atom, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id != kAbsent &&
           !(slots_[i].hash == hash && atoms_[slots_[i].id] == atom)) {
      i = (i + 1) & mask;
    }
    return i;
  }
  /// Doubles the slot table (or makes the smallest) and reinserts.
  void Grow();

  std::vector<Slot> slots_;
  std::vector<AtomView> atoms_;  // by id
};

}  // namespace park

#endif  // PARK_STORAGE_ATOM_TABLE_H_
