// RuleDependencyGraph against its reference definitions. The scheduler
// replaced an all-rules scan, so the scan's definitions are the oracle:
//   - Schedule(delta) is exactly {r : RuleIsAffected(r, delta)}, in
//     program order;
//   - for semi-naive Γ, the rules scheduled from a delta's changed
//     predicates are exactly the rules whose body holds a seed for one of
//     the delta's atoms.
// Programs are random, with ± heads and positive, negated, +event and
// -event body literals; deltas are random too.

#include "engine/rule_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "lang/parser.h"
#include "test_util.h"
#include "util/random.h"

namespace park {
namespace {

using ::park::testing_util::MustParseProgram;

constexpr int kNumPredicates = 8;

std::string Pred(int i) {
  std::string name = "p";
  name += std::to_string(i);
  return name;
}

/// A random propositional program over p0..p7: 1–3 body literals of any
/// kind (at least one binding literal keeps every rule safe) and a ± head.
std::string RandomProgramText(Rng& rng, int num_rules) {
  std::string text;
  for (int r = 0; r < num_rules; ++r) {
    const int body = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int i = 0; i < body; ++i) {
      if (i > 0) text += ", ";
      switch (rng.UniformInt(0, 3)) {
        case 0: text += "!"; break;
        case 1: text += "+"; break;
        case 2: text += "-"; break;
        default: break;
      }
      text += Pred(static_cast<int>(rng.UniformInt(0, kNumPredicates - 1)));
    }
    text += rng.Bernoulli(0.6) ? " -> +" : " -> -";
    text += Pred(static_cast<int>(rng.UniformInt(0, kNumPredicates - 1)));
    text += ".\n";
  }
  return text;
}

void SortUnique(std::vector<PredicateId>& preds) {
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
}

/// Random changed-predicate sets (never `initial`).
DeltaState RandomDelta(Rng& rng, const SymbolTable& symbols) {
  DeltaState delta;
  delta.initial = false;
  for (int p = 0; p < kNumPredicates; ++p) {
    const PredicateId pred = symbols.FindPredicate(Pred(p), 0).value();
    if (rng.Bernoulli(0.2)) delta.plus_changed.push_back(pred);
    if (rng.Bernoulli(0.2)) delta.minus_changed.push_back(pred);
  }
  SortUnique(delta.plus_changed);
  SortUnique(delta.minus_changed);
  return delta;
}

TEST(RuleGraphTest, ScheduleIsTheAffectedSet) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    auto symbols = MakeSymbolTable();
    for (int p = 0; p < kNumPredicates; ++p) {
      symbols->InternPredicate(Pred(p), 0);
    }
    Program program = MustParseProgram(
        RandomProgramText(rng, 4 + static_cast<int>(rng.UniformInt(0, 20))),
        symbols);
    const RuleDependencyGraph graph(program);
    for (int d = 0; d < 10; ++d) {
      DeltaState delta = d == 0 ? DeltaState{} : RandomDelta(rng, *symbols);
      std::vector<int> affected;
      for (const Rule& rule : program.rules()) {
        if (RuleIsAffected(rule, delta)) affected.push_back(rule.index());
      }
      std::vector<int> scheduled = {-1};  // a reused buffer is replaced
      graph.Schedule(delta, scheduled);
      EXPECT_EQ(scheduled, affected);
    }
  }
}

TEST(RuleGraphTest, SemiNaiveScheduleIsTheSeededSet) {
  // ComputeGammaSemiNaive collapses its delta atoms to changed predicates
  // and builds seed tasks only for the scheduled rules; that must lose no
  // rule with a seedable literal and add none without one.
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    auto symbols = MakeSymbolTable();
    std::vector<GroundAtom> atoms;
    for (int p = 0; p < kNumPredicates; ++p) {
      atoms.emplace_back(symbols->InternPredicate(Pred(p), 0), Tuple{});
    }
    Program program = MustParseProgram(
        RandomProgramText(rng, 4 + static_cast<int>(rng.UniformInt(0, 20))),
        symbols);
    const RuleDependencyGraph graph(program);
    for (int d = 0; d < 10; ++d) {
      DeltaAtoms delta;
      delta.initial = false;
      for (const GroundAtom& atom : atoms) {
        if (rng.Bernoulli(0.2)) delta.plus.push_back(atom.view());
        if (rng.Bernoulli(0.2)) delta.minus.push_back(atom.view());
      }
      std::vector<int> seeded;
      for (const Rule& rule : program.rules()) {
        bool has_seed = false;
        for (const BodyLiteral& lit : rule.body()) {
          const bool plus_side = lit.kind == LiteralKind::kPositive ||
                                 lit.kind == LiteralKind::kEventInsert;
          for (const AtomView& atom : plus_side ? delta.plus : delta.minus) {
            if (atom.predicate == lit.atom.predicate) has_seed = true;
          }
        }
        if (has_seed) seeded.push_back(rule.index());
      }
      DeltaState changed;
      changed.initial = false;
      for (const AtomView& atom : delta.plus) {
        changed.plus_changed.push_back(atom.predicate);
      }
      for (const AtomView& atom : delta.minus) {
        changed.minus_changed.push_back(atom.predicate);
      }
      SortUnique(changed.plus_changed);
      SortUnique(changed.minus_changed);
      std::vector<int> scheduled;
      graph.Schedule(changed, scheduled);
      EXPECT_EQ(scheduled, seeded);
    }
  }
}

}  // namespace
}  // namespace park
