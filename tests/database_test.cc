#include "storage/database.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>

#include "park/park.h"
#include "workload/graph_gen.h"

namespace park {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : symbols_(MakeSymbolTable()), db_(symbols_) {}

  GroundAtom Atom(std::string_view pred,
                  const std::vector<std::string>& args) {
    PredicateId p = symbols_->InternPredicate(
        pred, static_cast<int>(args.size()));
    Tuple t;
    for (const auto& a : args) {
      t.Append(Value::Symbol(symbols_->InternSymbol(a)));
    }
    return GroundAtom(p, std::move(t));
  }

  std::shared_ptr<SymbolTable> symbols_;
  Database db_;
};

TEST_F(DatabaseTest, InsertContainsErase) {
  GroundAtom atom = Atom("p", {"a"});
  EXPECT_TRUE(db_.Insert(atom));
  EXPECT_FALSE(db_.Insert(atom));
  EXPECT_TRUE(db_.Contains(atom));
  EXPECT_EQ(db_.size(), 1u);
  EXPECT_TRUE(db_.Erase(atom));
  EXPECT_FALSE(db_.Erase(atom));
  EXPECT_TRUE(db_.empty());
}

TEST_F(DatabaseTest, InsertAtomConvenience) {
  EXPECT_TRUE(db_.InsertAtom("edge", {"a", "b"}));
  EXPECT_TRUE(db_.Contains(Atom("edge", {"a", "b"})));
  EXPECT_FALSE(db_.InsertAtom("edge", {"a", "b"}));
}

TEST_F(DatabaseTest, EraseFromUnknownPredicate) {
  EXPECT_FALSE(db_.Erase(Atom("never", {"x"})));
}

TEST_F(DatabaseTest, ToStringSortsAtoms) {
  db_.InsertAtom("q", {"b"});
  db_.InsertAtom("p", {"a"});
  db_.InsertAtom("p", {});
  EXPECT_EQ(db_.ToString(), "{p, p(a), q(b)}");
}

TEST_F(DatabaseTest, CloneIsIndependent) {
  db_.InsertAtom("p", {"a"});
  Database copy = db_.Clone();
  copy.InsertAtom("p", {"b"});
  EXPECT_EQ(db_.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.symbols(), db_.symbols());
}

TEST_F(DatabaseTest, SameAtoms) {
  db_.InsertAtom("p", {"a"});
  Database other = db_.Clone();
  EXPECT_TRUE(db_.SameAtoms(other));
  other.InsertAtom("p", {"b"});
  EXPECT_FALSE(db_.SameAtoms(other));
  db_.InsertAtom("q", {"b"});
  EXPECT_FALSE(db_.SameAtoms(other));  // same size, different atoms
}

TEST_F(DatabaseTest, DiffWith) {
  db_.InsertAtom("p", {"a"});
  db_.InsertAtom("p", {"b"});
  Database other(symbols_);
  other.InsertAtom("p", {"b"});
  other.InsertAtom("q", {"c"});
  Database::Diff diff = db_.DiffWith(other);
  ASSERT_EQ(diff.only_in_this.size(), 1u);
  EXPECT_EQ(diff.only_in_this[0].ToString(*symbols_), "p(a)");
  ASSERT_EQ(diff.only_in_other.size(), 1u);
  EXPECT_EQ(diff.only_in_other[0].ToString(*symbols_), "q(c)");
  EXPECT_FALSE(diff.empty());
  EXPECT_TRUE(db_.DiffWith(db_.Clone()).empty());
}

TEST_F(DatabaseTest, GetRelation) {
  EXPECT_EQ(db_.GetRelation(symbols_->InternPredicate("p", 1)), nullptr);
  db_.InsertAtom("p", {"a"});
  const Relation* rel = db_.GetRelation(symbols_->InternPredicate("p", 1));
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->size(), 1u);
}

TEST_F(DatabaseTest, ForEachVisitsEverything) {
  db_.InsertAtom("p", {"a"});
  db_.InsertAtom("q", {"b", "c"});
  db_.InsertAtom("r", {});
  size_t count = 0;
  db_.ForEach([&](const GroundAtom&) { ++count; });
  EXPECT_EQ(count, 3u);
}

TEST_F(DatabaseTest, MixedValueTypes) {
  PredicateId p = symbols_->InternPredicate("score", 2);
  db_.Insert(GroundAtom(
      p, Tuple{Value::Symbol(symbols_->InternSymbol("alice")),
               Value::Int(100)}));
  EXPECT_EQ(db_.ToString(), "{score(alice, 100)}");
}

TEST_F(DatabaseTest, RecycledRelationIsReusedOnAnotherThread) {
  for (int i = 0; i < 20; ++i) {
    db_.InsertAtom("p", {"a" + std::to_string(i), "b"});
  }
  const Relation* filled =
      db_.GetRelation(symbols_->InternPredicate("p", 2));
  Database taken(symbols_);
  std::thread worker([&] {
    // Recycled into the worker's pool, and reused there by another
    // predicate of another arity.
    db_.Recycle();
    EXPECT_TRUE(db_.empty());
    taken.Insert(Atom("q", {"c"}));
    taken.Insert(Atom("q", {"d"}));
  });
  worker.join();
  const Relation* reused = taken.GetRelation(symbols_->InternPredicate("q", 1));
  EXPECT_EQ(reused, filled);
  EXPECT_EQ(taken.ToString(), "{q(c), q(d)}");
  EXPECT_EQ(reused->stats().rows(), 2.0);
  EXPECT_EQ(db_.GetRelation(symbols_->InternPredicate("p", 2)), nullptr);
  EXPECT_FALSE(db_.Contains(Atom("p", {"a0", "b"})));

  // Back on this thread, retiring hands the node and the map to this
  // thread's pool, and a pooled database takes both.
  taken.Retire();
  EXPECT_TRUE(taken.empty());
  Database pooled = Database::Pooled(symbols_);
  pooled.InsertAtom("r", {"e"});
  EXPECT_EQ(pooled.GetRelation(symbols_->InternPredicate("r", 1)), filled);
  EXPECT_EQ(pooled.ToString(), "{r(e)}");
  EXPECT_TRUE(pooled.Erase(Atom("r", {"e"})));
  EXPECT_TRUE(pooled.empty());
}

// --- Row hints (Database::Pooled) ---

/// Runs `fn` on a new thread, whose relation pool and row hints start
/// empty.
void OnFreshThread(const std::function<void()>& fn) {
  std::thread thread(fn);
  thread.join();
}

/// The row-set slots of a relation presized for `rows` rows.
size_t TableSlots(size_t rows) {
  size_t slots = 8;
  while (rows * 2 > slots) slots <<= 1;
  return slots;
}

/// The bytes by which `predicate`'s relation in `db`, which holds one
/// row, exceeds a fresh relation holding one row: its presized slots.
size_t PresizedBytes(const Database& db, PredicateId predicate) {
  const Relation* rel = db.GetRelation(predicate);
  EXPECT_NE(rel, nullptr);
  if (rel == nullptr) return 0;
  EXPECT_EQ(rel->size(), 1u);
  Relation fresh(rel->arity());
  fresh.Insert(std::vector<Value>(static_cast<size_t>(rel->arity()),
                                  Value::Int(0)));
  return rel->capacity_bytes() - fresh.capacity_bytes();
}

/// Moves a pooled database holding `rows` atoms `predicate(i)` into
/// `into`, as a bare Park() moves I⁺ into its result: the predicate's row
/// hint on this thread becomes `rows`.
void LeavePoolWith(Database& into, PredicateId predicate, int64_t rows) {
  Database marks = Database::Pooled(into.symbols());
  for (int64_t i = 0; i < rows; ++i) {
    const Value v = Value::Int(i);
    marks.Emplace(AtomView{predicate, {&v, 1}});
  }
  into.InsertAll(std::move(marks));
}

TEST_F(DatabaseTest, RowHintsPresizeOnlyPooledDatabases) {
  const PredicateId p = symbols_->InternPredicate("p", 1);
  const PredicateId q = symbols_->InternPredicate("q", 1);
  OnFreshThread([&] {
    Database result(symbols_);
    LeavePoolWith(result, p, 1000);
    EXPECT_EQ(result.size(), 1000u);
    Database pooled = Database::Pooled(symbols_);
    Database plain(symbols_);
    for (Database* db : {&pooled, &plain}) db->InsertAtom("p", {"a"});
    EXPECT_EQ(PresizedBytes(pooled, p),
              (TableSlots(1000) - 8) * Relation::kSlotBytes);
    EXPECT_EQ(PresizedBytes(plain, p), 0u);
    EXPECT_EQ(pooled.ToString(), plain.ToString());
    // A predicate that never left a pooled database has no hint.
    pooled.InsertAtom("q", {"a"});
    EXPECT_EQ(PresizedBytes(pooled, q), 0u);
    // The database InsertAll moved the hinted relation into reads none
    // either, for another hinted predicate.
    LeavePoolWith(plain, q, 1000);
    result.InsertAtom("q", {"a"});
    EXPECT_EQ(PresizedBytes(result, q), 0u);
  });
}

TEST_F(DatabaseTest, ParkResultReadsNoRowHints) {
  OnFreshThread([] {
    // The closure of a 40-node path: 780 path atoms in I⁺, moved into
    // the result, so path's hint on this thread is 780.
    const Workload w =
        MakeTransitiveClosureWorkload(GraphShape::kPath, 40, 0, 1);
    const PredicateId path = w.symbols->InternPredicate("path", 2);
    auto hinted = Park(w.program, w.database, ParkOptions());
    ASSERT_TRUE(hinted.ok()) << hinted.status().ToString();
    EXPECT_EQ(hinted->database.GetRelation(path)->size(), 780u);
    Database pooled = Database::Pooled(w.symbols);
    pooled.InsertAtom("path", {"0", "1"});
    EXPECT_EQ(PresizedBytes(pooled, path),
              (TableSlots(780) - 8) * Relation::kSlotBytes);

    // Over no edges, the result has no path relation; one made in it
    // reads no hint.
    auto empty = Park(w.program, Database(w.symbols), ParkOptions());
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    ASSERT_EQ(empty->database.GetRelation(path), nullptr);
    empty->database.InsertAtom("path", {"0", "1"});
    EXPECT_EQ(PresizedBytes(empty->database, path), 0u);

    // A warm evaluation returns what a cold one returned.
    auto warm = Park(w.program, w.database, ParkOptions());
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->database.ToString(), hinted->database.ToString());
  });
}

TEST_F(DatabaseTest, RowHintsArePerThread) {
  const PredicateId p = symbols_->InternPredicate("p", 1);
  OnFreshThread([&] {
    Database sink(symbols_);
    OnFreshThread([&] {
      Database worker_sink(symbols_);
      LeavePoolWith(worker_sink, p, 1000);
      Database pooled = Database::Pooled(symbols_);
      pooled.InsertAtom("p", {"a"});
      EXPECT_EQ(PresizedBytes(pooled, p),
                (TableSlots(1000) - 8) * Relation::kSlotBytes);
    });
    Database pooled = Database::Pooled(symbols_);
    pooled.InsertAtom("p", {"a"});
    EXPECT_EQ(PresizedBytes(pooled, p), 0u);
  });
}

TEST_F(DatabaseTest, RowHintPresizesAtMostRetainedSectionBytes) {
  const PredicateId p = symbols_->InternPredicate("p", 1);
  // One row more than a kRetainedSectionBytes table holds uncrowded.
  constexpr int64_t kRows =
      kRetainedSectionBytes / (2 * Relation::kSlotBytes) + 1;
  OnFreshThread([&] {
    {
      Database sink(symbols_);
      LeavePoolWith(sink, p, kRows);
    }
    Database pooled = Database::Pooled(symbols_);
    pooled.InsertAtom("p", {"a"});
    EXPECT_EQ(PresizedBytes(pooled, p),
              kRetainedSectionBytes - 8 * Relation::kSlotBytes);
  });
}

TEST_F(DatabaseTest, RekeyedPoolNodeGrowsToItsHintOnce) {
  const PredicateId a = symbols_->InternPredicate("a", 1);
  const PredicateId b = symbols_->InternPredicate("b", 1);
  OnFreshThread([&] {
    Database sink(symbols_);
    LeavePoolWith(sink, b, 1000);
    // A relation of the unhinted `a` goes to the pool with its 8-slot
    // table...
    Database first = Database::Pooled(symbols_);
    first.InsertAtom("a", {"x"});
    const Relation* node = first.GetRelation(a);
    EXPECT_EQ(PresizedBytes(first, a), 0u);
    first.Retire();
    // ...and, re-keyed to `b`, takes b's table on its first row, after
    // which b's 1,000 rows regrow nothing: it ends as a relation grown
    // row by row to them.
    Database second = Database::Pooled(symbols_);
    second.InsertAtom("b", {"x"});
    ASSERT_EQ(second.GetRelation(b), node);
    EXPECT_EQ(PresizedBytes(second, b),
              (TableSlots(1000) - 8) * Relation::kSlotBytes);
    Relation grown(1);
    grown.Insert(std::vector<Value>{Value::Symbol(symbols_->InternSymbol("x"))});
    for (int64_t i = 1; i < 1000; ++i) {
      const Value v = Value::Int(i);
      second.Emplace(AtomView{b, {&v, 1}});
      grown.Insert(std::vector<Value>{v});
    }
    EXPECT_EQ(second.GetRelation(b)->capacity_bytes(),
              grown.capacity_bytes());
    EXPECT_EQ(second.GetRelation(b)->SortedTuples(), grown.SortedTuples());
  });
}

}  // namespace
}  // namespace park
