#include "storage/value.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/ground_atom.h"
#include "storage/tuple.h"

namespace park {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  SymbolId a = table.InternSymbol("alice");
  SymbolId b = table.InternSymbol("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.InternSymbol("alice"), a);
  EXPECT_EQ(table.SymbolName(a), "alice");
  EXPECT_EQ(table.NumSymbols(), 2u);
}

TEST(SymbolTableTest, FindSymbol) {
  SymbolTable table;
  EXPECT_EQ(table.FindSymbol("x"), std::nullopt);
  SymbolId x = table.InternSymbol("x");
  EXPECT_EQ(table.FindSymbol("x"), x);
}

TEST(SymbolTableTest, PredicatesDistinguishedByArity) {
  SymbolTable table;
  PredicateId p1 = table.InternPredicate("p", 1);
  PredicateId p2 = table.InternPredicate("p", 2);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(table.PredicateName(p1), "p");
  EXPECT_EQ(table.PredicateName(p2), "p");
  EXPECT_EQ(table.PredicateArity(p1), 1);
  EXPECT_EQ(table.PredicateArity(p2), 2);
  EXPECT_EQ(table.InternPredicate("p", 1), p1);
  EXPECT_EQ(table.FindPredicate("p", 2), p2);
  EXPECT_EQ(table.FindPredicate("p", 3), std::nullopt);
}

TEST(ValueTest, TypePredicates) {
  SymbolTable table;
  Value sym = Value::Symbol(table.InternSymbol("a"));
  Value num = Value::Int(-42);
  Value str = Value::String(table.InternSymbol("hello world"));
  EXPECT_TRUE(sym.is_symbol());
  EXPECT_TRUE(num.is_int());
  EXPECT_TRUE(str.is_string());
  EXPECT_EQ(num.int_value(), -42);
}

TEST(ValueTest, EqualityIsTypeAndPayload) {
  SymbolTable table;
  SymbolId id = table.InternSymbol("a");
  EXPECT_EQ(Value::Symbol(id), Value::Symbol(id));
  // Same interned id but different type tag: not equal.
  EXPECT_NE(Value::Symbol(id), Value::String(id));
  EXPECT_NE(Value::Int(0), Value::Symbol(id));
  EXPECT_EQ(Value::Int(7), Value::Int(7));
  EXPECT_NE(Value::Int(7), Value::Int(8));
}

TEST(ValueTest, OrderingIsTotal) {
  SymbolTable table;
  Value s0 = Value::Symbol(table.InternSymbol("a"));
  Value s1 = Value::Symbol(table.InternSymbol("b"));
  Value i = Value::Int(-5);
  Value str = Value::String(table.InternSymbol("z"));
  EXPECT_LT(s0, s1);
  EXPECT_LT(s1, i);    // symbols < ints
  EXPECT_LT(i, str);   // ints < strings
  EXPECT_LT(Value::Int(-10), Value::Int(3));  // signed comparison
}

TEST(ValueTest, ToString) {
  SymbolTable table;
  EXPECT_EQ(Value::Symbol(table.InternSymbol("alice")).ToString(table),
            "alice");
  EXPECT_EQ(Value::Int(-3).ToString(table), "-3");
  EXPECT_EQ(Value::String(table.InternSymbol("a \"b\" \\c")).ToString(table),
            "\"a \\\"b\\\" \\\\c\"");
}

TEST(ValueTest, HashConsistentWithEquality) {
  SymbolTable table;
  SymbolId id = table.InternSymbol("a");
  EXPECT_EQ(Value::Symbol(id).Hash(), Value::Symbol(id).Hash());
  EXPECT_NE(Value::Symbol(id).Hash(), Value::String(id).Hash());
}

TEST(ValueTest, ConstantFromTextMatchesParserRules) {
  SymbolTable table;
  EXPECT_EQ(ConstantFromText("42", table), Value::Int(42));
  EXPECT_EQ(ConstantFromText("-7", table), Value::Int(-7));
  EXPECT_EQ(ConstantFromText("0", table), Value::Int(0));
  Value alice = ConstantFromText("alice", table);
  EXPECT_EQ(alice, Value::Symbol(*table.FindSymbol("alice")));
  // Not actually numeric: falls back to a symbol.
  EXPECT_TRUE(ConstantFromText("-", table).is_symbol());
  EXPECT_TRUE(ConstantFromText("12x", table).is_symbol());
  EXPECT_TRUE(ConstantFromText("x12", table).is_symbol());
}

TEST(TupleTest, BasicAccessors) {
  Tuple t{Value::Int(1), Value::Int(2)};
  EXPECT_EQ(t.arity(), 2);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t[0], Value::Int(1));
  Tuple empty;
  EXPECT_EQ(empty.arity(), 0);
  EXPECT_TRUE(empty.empty());
}

TEST(TupleTest, EqualityAndOrdering) {
  Tuple a{Value::Int(1), Value::Int(2)};
  Tuple b{Value::Int(1), Value::Int(2)};
  Tuple c{Value::Int(1), Value::Int(3)};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_LT(Tuple{Value::Int(1)}, a);  // shorter is less (lexicographic)
}

TEST(TupleTest, ToString) {
  SymbolTable table;
  Tuple t{Value::Symbol(table.InternSymbol("a")), Value::Int(9)};
  EXPECT_EQ(t.ToString(table), "(a, 9)");
  EXPECT_EQ(Tuple{}.ToString(table), "");
}

TEST(TupleTest, HashDiffersByOrder) {
  Tuple ab{Value::Int(1), Value::Int(2)};
  Tuple ba{Value::Int(2), Value::Int(1)};
  EXPECT_NE(ab.Hash(), ba.Hash());
}

/// Tuples of arity 0, kInlineValues and kInlineValues + 1: the empty
/// row, the longest inline row and the shortest heap row.
std::vector<std::vector<Value>> RowsAroundTheInlineSize() {
  constexpr int k = static_cast<int>(Tuple::kInlineValues);
  std::vector<std::vector<Value>> rows(3);
  for (int i = 0; i < k; ++i) rows[1].push_back(Value::Int(10 + i));
  for (int i = 0; i <= k; ++i) rows[2].push_back(Value::Int(20 + i));
  return rows;
}

void ExpectHolds(const Tuple& t, const std::vector<Value>& row) {
  ASSERT_EQ(t.arity(), static_cast<int>(row.size()));
  EXPECT_EQ(t.empty(), row.empty());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(t[static_cast<int>(i)], row[i]);
  }
  EXPECT_TRUE(std::equal(t.begin(), t.end(), row.begin(), row.end()));
  EXPECT_EQ(t.span().size(), row.size());
  EXPECT_EQ(t.values().data(), t.begin());
}

TEST(TupleTest, CopyMoveAndAssignAroundTheInlineSize) {
  for (const std::vector<Value>& row : RowsAroundTheInlineSize()) {
    SCOPED_TRACE(row.size());
    const Tuple original(row);
    ExpectHolds(original, row);
    Tuple copy(original);
    ExpectHolds(copy, row);
    Tuple moved(std::move(copy));
    ExpectHolds(moved, row);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)

    // Assignment in every direction between the three sizes, including
    // a heap Tuple assigned a shorter row (its block is reused).
    for (const std::vector<Value>& other : RowsAroundTheInlineSize()) {
      Tuple assigned(other);
      assigned = original;
      ExpectHolds(assigned, row);
      Tuple move_assigned(other);
      Tuple source(original);
      move_assigned = std::move(source);
      ExpectHolds(move_assigned, row);
      EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    }

    Tuple self(original);
    Tuple& alias = self;
    self = alias;
    ExpectHolds(self, row);
    self = std::move(alias);
    ExpectHolds(self, row);
  }
}

TEST(TupleTest, AppendGrowsPastTheInlineSize) {
  Tuple t;
  std::vector<Value> row;
  for (int i = 0; i < 4 * static_cast<int>(Tuple::kInlineValues) + 1; ++i) {
    t.Append(Value::Int(i));
    row.push_back(Value::Int(i));
    ExpectHolds(t, row);
  }
  Tuple copy = t;
  copy.Append(Value::Int(-1));
  ExpectHolds(t, row);  // the copy owns its own block
  row.push_back(Value::Int(-1));
  ExpectHolds(copy, row);
}

TEST(TupleTest, OrderAndHashAreThoseOfAValueVector) {
  SymbolTable table;
  const Value a = Value::Symbol(table.InternSymbol("a"));
  const Value s = Value::String(table.InternSymbol("s"));
  std::vector<std::vector<Value>> rows = RowsAroundTheInlineSize();
  rows.push_back({a});
  rows.push_back({a, s});
  rows.push_back({s, a});
  rows.push_back({a, Value::Int(-3), s});
  rows.push_back({Value::Int(10), Value::Int(9)});
  for (const std::vector<Value>& x : rows) {
    EXPECT_EQ(Tuple(x).Hash(), HashValues(x.data(), x.size()));
    for (const std::vector<Value>& y : rows) {
      EXPECT_EQ(Tuple(x) < Tuple(y), x < y);
      EXPECT_EQ(Tuple(x) == Tuple(y), x == y);
    }
  }
}

#if defined(_GLIBCXX_ASSERTIONS)
// Inline values sit inside the Tuple, where ASan sees no overread, so
// the hardened build checks every index.
TEST(TupleDeathTest, IndexIsCheckedUnderAssertions) {
  const Tuple t{Value::Int(1)};
  EXPECT_DEATH((void)t[1], "out of range");
  EXPECT_DEATH((void)t[-1], "out of range");
}
#endif

TEST(GroundAtomTest, Basics) {
  SymbolTable table;
  PredicateId p = table.InternPredicate("p", 2);
  PredicateId q = table.InternPredicate("q", 0);
  GroundAtom pa(p, Tuple{Value::Int(1), Value::Int(2)});
  GroundAtom qa(q, Tuple{});
  EXPECT_EQ(pa.ToString(table), "p(1, 2)");
  EXPECT_EQ(qa.ToString(table), "q");
  EXPECT_EQ(pa.arity(), 2);
  EXPECT_NE(pa, qa);
  EXPECT_LT(pa, qa);  // predicate id order
}

}  // namespace
}  // namespace park
