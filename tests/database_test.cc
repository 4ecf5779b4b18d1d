#include "storage/database.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

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

}  // namespace
}  // namespace park
