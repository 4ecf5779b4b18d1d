// Database: a database instance in the paper's sense — a finite set of
// positive ground atoms, organized as one Relation per predicate.
//
// A Database owns its tuples but shares a SymbolTable with the programs
// that run against it. Databases are the inputs and outputs of the PARK
// semantics: `PARK(P, D)` maps a Database to a Database.

#ifndef PARK_STORAGE_DATABASE_H_
#define PARK_STORAGE_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/ground_atom.h"
#include "storage/relation.h"
#include "util/status.h"

namespace park {

/// The most bytes each of a thread's scratch stores keeps for the next
/// evaluation: the Γ section's (its derivation list, the per-task lists
/// of a parallel section, the clash test's atom table, engine/
/// consequence.cc), conflict construction's (its atom table and grouping
/// arrays, core/conflict.cc) and the relation pool of recycled mark
/// stores (Database::Recycle). Buffers that take a store past it are
/// freed when their section ends, so one giant evaluation pins no memory
/// afterwards.
inline constexpr size_t kRetainedSectionBytes = size_t{16} << 20;

/// A set of ground atoms with per-predicate index-backed storage.
class Database {
 public:
  /// Creates an empty database over `symbols` (must be non-null).
  explicit Database(std::shared_ptr<SymbolTable> symbols);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Deep copy (shares the symbol table, copies all tuples).
  Database Clone() const;

  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }
  SymbolTable& mutable_symbols() { return *symbols_; }

  /// Inserts `atom`; returns true if it was not already present.
  bool Insert(const GroundAtom& atom);

  /// Inserts `atom` unless present, and returns the stored row and
  /// whether it was new (Relation::Emplace): a present atom costs one
  /// probe and no allocation.
  std::pair<std::span<const Value>, bool> Emplace(AtomView atom);

  /// Convenience: interns `predicate` (with arity = args.size()) and the
  /// symbol constants in `args`, then inserts. Example:
  ///   db.InsertAtom("edge", {"a", "b"});
  bool InsertAtom(std::string_view predicate,
                  const std::vector<std::string>& args);

  /// Inserts every atom of `other`, which must share the symbol table,
  /// and leaves `other` empty. A predicate with no relation here takes
  /// other's relation whole: its rows, stats and hash indexes, with its
  /// columnar view dropped and thawed (Relation::DropColumnar), so it
  /// reads as if the atoms had been inserted one by one.
  /// Every other predicate's atoms are inserted one by one.
  void InsertAll(Database&& other);

  /// Removes `atom`; returns true if it was present.
  bool Erase(AtomView atom);
  bool Erase(const GroundAtom& atom) { return Erase(atom.view()); }

  bool Contains(const GroundAtom& atom) const;

  /// Heterogeneous lookup: does `predicate(args[0..n))` hold? Same answer
  /// as Contains(GroundAtom(...)) without materializing the atom — the
  /// executors' per-candidate dedup and filter checks go through here.
  bool Contains(PredicateId predicate, const Value* args, size_t n) const;
  bool Contains(AtomView atom) const {
    return Contains(atom.predicate, atom.args.data(), atom.args.size());
  }

  /// Number of atoms across all predicates.
  size_t size() const { return total_atoms_; }
  bool empty() const { return total_atoms_ == 0; }

  /// The relation for `predicate`, or nullptr if no atom of that predicate
  /// was ever inserted.
  const Relation* GetRelation(PredicateId predicate) const;

  /// The relation for `predicate`, created (with `arity`) if absent. A
  /// created relation reuses a node of this thread's relation pool when
  /// there is one (Recycle).
  Relation& GetOrCreateRelation(PredicateId predicate, int arity);

  /// Empties the database into this thread's relation pool: each
  /// relation is Reset (Relation::Reset) and kept with its map node, and
  /// the next relation GetOrCreateRelation creates on this thread, in any
  /// database, takes one instead of allocating. The relation map keeps
  /// its buckets. The pool holds at most kRetainedSectionBytes and frees
  /// whatever would take it past. An i-interpretation's mark stores are
  /// pooled databases: it recycles them when it clears its marks and
  /// retires them when it dies, so a warm Δ loop builds no relation and
  /// no relation map for a predicate it marks again.
  void Recycle();

  /// Recycle(), then the emptied relation map, with its buckets, goes to
  /// the pool as well, for the next Pooled database on this thread. The
  /// database is left empty.
  void Retire();

  /// An empty database over `symbols` whose relation map is one a
  /// Retire()d database left in this thread's pool, buckets and all, or
  /// a fresh one if the pool holds none.
  static Database Pooled(std::shared_ptr<SymbolTable> symbols);

  /// Invokes `fn` for every atom, in unspecified order. Each visited atom
  /// is copied into a GroundAtom; walk ForEachRelation's rows instead
  /// where that copy matters.
  void ForEach(const std::function<void(const GroundAtom&)>& fn) const;

  /// Invokes `fn` for every (predicate, relation) pair, in unspecified
  /// order. A serving Session builds its published relations through
  /// this.
  void ForEachRelation(
      const std::function<void(PredicateId, const Relation&)>& fn) const {
    for (const auto& [pred, rel] : relations_) fn(pred, rel);
  }

  /// Freezes (resp. thaws) every relation for a read-only parallel
  /// section — see Relation::FreezeIndexes. Relations created after a
  /// freeze are unfrozen, so freezing must happen after the database has
  /// reached the state the parallel readers will see.
  void FreezeIndexes() const;
  void ThawIndexes() const;

  /// Compacts the columnar view of every relation (Relation::
  /// CompactColumnar). No-op for already-compact relations. No engine
  /// path calls it: it stays, awaiting removal with Relation's columnar
  /// state, because park_bench times it (`storage.compact_ms`).
  void CompactColumnar() const;

  /// All atoms as sorted, rendered strings — deterministic; used in tests
  /// and tools.
  std::vector<std::string> SortedAtomStrings() const;

  /// "{p(a), q(a, b)}" with atoms sorted by rendered text.
  std::string ToString() const;

  /// True iff both databases contain exactly the same atoms. The two
  /// databases must share a symbol table.
  bool SameAtoms(const Database& other) const;

  /// Atoms present in `this` but not `other`, and vice versa.
  struct Diff {
    std::vector<GroundAtom> only_in_this;
    std::vector<GroundAtom> only_in_other;
    bool empty() const { return only_in_this.empty() && only_in_other.empty(); }
  };
  Diff DiffWith(const Database& other) const;

 private:
  /// A one-entry cache of the last relation a mutating call found:
  /// consecutive marks and probes of a Γ section mostly share a
  /// predicate. Only mutating calls fill it, so const readers, which may
  /// run concurrently (frozen parallel sections, snapshot readers), only
  /// read it. Map nodes never move while in the map, so the entry is
  /// invalidated only where `relations_` loses nodes or moves whole: a
  /// move of the Database empties both ends' caches, and InsertAll
  /// forgets the source's.
  class LastRelation {
   public:
    LastRelation() = default;
    LastRelation(LastRelation&& other) noexcept { other.Forget(); }
    LastRelation& operator=(LastRelation&& other) noexcept {
      Forget();
      other.Forget();
      return *this;
    }

    Relation* Get(PredicateId predicate) const {
      return predicate == predicate_ ? relation_ : nullptr;
    }
    void Set(PredicateId predicate, Relation* relation) {
      predicate_ = predicate;
      relation_ = relation;
    }
    void Forget() { relation_ = nullptr; }

   private:
    PredicateId predicate_ = 0;
    Relation* relation_ = nullptr;
  };

  /// The relation of `predicate`, or nullptr; the const form reads the
  /// cache, the mutating form also fills it.
  const Relation* FindRelation(PredicateId predicate) const;
  Relation* FindRelation(PredicateId predicate);

  using RelationMap = std::unordered_map<PredicateId, Relation>;
  struct RelationPool;
  static RelationPool& ThreadRelationPool();

  std::shared_ptr<SymbolTable> symbols_;
  RelationMap relations_;
  size_t total_atoms_ = 0;
  LastRelation last_;
};

}  // namespace park

#endif  // PARK_STORAGE_DATABASE_H_
