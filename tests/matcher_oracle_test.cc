// Oracle test for the body matcher: the cost-based plan (CompilePlan)
// executed by ExecutePlan (unseeded or seeded) must return exactly the
// substitutions a brute-force enumeration over the active domain accepts,
// for random rules, random databases, and random marked atoms, for every
// seed literal. Half the
// scenarios skew the stores so the planner reorders bodies away from
// source order. This pins down the trickiest module (join planning, index
// usage, repeated variables, negation ordering, event literals) against a
// definition-level implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "engine/matcher.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "util/random.h"
#include "util/string_util.h"

namespace park {
namespace {

constexpr int kNumConstants = 4;  // c0..c3
constexpr int kNumPredicates = 3; // q0/1, q1/2, q2/1

std::string ConstName(int i) { return StrFormat("c%d", i); }

/// Builds a random safe rule as text; retries until it parses safely.
std::string RandomRuleText(Rng& rng) {
  static const char* kVars[] = {"X", "Y", "Z"};
  auto term = [&](bool allow_var) {
    if (allow_var && rng.Bernoulli(0.6)) {
      return std::string(kVars[rng.Uniform(3)]);
    }
    return ConstName(static_cast<int>(rng.Uniform(kNumConstants)));
  };
  auto atom = [&](bool allow_var) {
    int pred = static_cast<int>(rng.Uniform(kNumPredicates));
    int arity = pred == 1 ? 2 : 1;
    std::string out = StrFormat("q%d(", pred);
    for (int i = 0; i < arity; ++i) {
      if (i > 0) out += ", ";
      out += term(allow_var);
    }
    out += ")";
    return out;
  };
  int body_len = 1 + static_cast<int>(rng.Uniform(3));
  std::string text;
  for (int i = 0; i < body_len; ++i) {
    if (i > 0) text += ", ";
    switch (rng.Uniform(5)) {
      case 0:
        text += "!";
        break;
      case 1:
        text += "+";
        break;
      case 2:
        text += "-";
        break;
      default:
        break;
    }
    text += atom(true);
  }
  text += " -> +" + atom(true) + ".";
  return text;
}

std::string BindingKey(const std::vector<Value>& binding,
                       const SymbolTable& symbols) {
  std::string key;
  for (const Value& v : binding) key += v.ToString(symbols) + ",";
  return key;
}

/// Definition-level match enumeration: every assignment of the rule's
/// variables over the constant domain, accepted iff all literals valid
/// (and, with a seed, iff literal `seed_index` grounds to `seed`).
std::set<std::string> OracleMatches(const Rule& rule,
                                    const IInterpretation& interp,
                                    const std::vector<Value>& domain,
                                    const SymbolTable& symbols,
                                    int seed_index = -1,
                                    const GroundAtom* seed = nullptr) {
  std::set<std::string> accepted;
  int vars = rule.num_variables();
  std::vector<size_t> choice(static_cast<size_t>(vars), 0);
  while (true) {
    std::vector<Value> binding;
    binding.reserve(static_cast<size_t>(vars));
    for (int v = 0; v < vars; ++v) {
      binding.push_back(domain[choice[static_cast<size_t>(v)]]);
    }
    bool valid = true;
    for (size_t i = 0; i < rule.body().size(); ++i) {
      const BodyLiteral& lit = rule.body()[i];
      GroundAtom ground = lit.atom.Ground(binding);
      if (!interp.IsValid(ground, lit.kind) ||
          (static_cast<int>(i) == seed_index && !(ground == *seed))) {
        valid = false;
        break;
      }
    }
    if (valid) accepted.insert(BindingKey(binding, symbols));
    // Odometer increment.
    int pos = 0;
    while (pos < vars) {
      if (++choice[static_cast<size_t>(pos)] < domain.size()) break;
      choice[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (vars == 0 || pos == vars) break;
  }
  return accepted;
}

/// Runs `plan` (seeded with `seed` when non-null) and returns the
/// matches as keys, in enumeration order.
std::vector<std::string> Execute(const CompiledPlan& plan, const Rule& rule,
                                 const IInterpretation& interp,
                                 const GroundAtom* seed,
                                 const SymbolTable& symbols) {
  std::optional<AtomView> view;
  if (seed != nullptr) view = seed->view();
  std::vector<std::string> out;
  auto emit = [&](std::span<const Value> binding) {
    out.push_back(BindingKey({binding.begin(), binding.end()}, symbols));
  };
  ExecutePlan(plan, rule, interp, view ? &*view : nullptr, emit);
  return out;
}

/// The matches as a set, failing on duplicate bindings.
std::set<std::string> AsSet(const std::vector<std::string>& keys) {
  std::set<std::string> out;
  for (const std::string& key : keys) {
    EXPECT_TRUE(out.insert(key).second) << "duplicate binding: " << key;
  }
  return out;
}

/// True if the plan's steps leave body source order.
bool Reordered(const CompiledPlan& plan) {
  for (size_t i = 1; i < plan.steps.size(); ++i) {
    if (plan.steps[i].literal_index < plan.steps[i - 1].literal_index) {
      return true;
    }
  }
  return false;
}

class MatcherOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherOracleTest, MatcherAgreesWithBruteForce) {
  Rng rng(GetParam());
  auto symbols = MakeSymbolTable();

  // Constant domain, interned up front.
  std::vector<Value> domain;
  for (int i = 0; i < kNumConstants; ++i) {
    domain.push_back(Value::Symbol(symbols->InternSymbol(ConstName(i))));
  }
  // Predeclare predicates so random facts and rules agree on arity.
  PredicateId preds[kNumPredicates] = {
      symbols->InternPredicate("q0", 1), symbols->InternPredicate("q1", 2),
      symbols->InternPredicate("q2", 1)};
  auto random_atom = [&](int p) {
    Tuple t;
    for (int i = 0; i < (p == 1 ? 2 : 1); ++i) {
      t.Append(domain[rng.Uniform(kNumConstants)]);
    }
    return GroundAtom(preds[p], std::move(t));
  };

  int reordered = 0;
  for (int scenario = 0; scenario < 30; ++scenario) {
    // Random base facts; odd scenarios skew the stores (one predicate
    // dense, the others nearly empty) so the cost planner's order
    // departs from source order.
    const bool skewed = scenario % 2 == 1;
    const int dense = static_cast<int>(rng.Uniform(kNumPredicates));
    Database db(symbols);
    for (int p = 0; p < kNumPredicates; ++p) {
      int facts = static_cast<int>(rng.Uniform(6));
      if (skewed) facts = p == dense ? 24 : static_cast<int>(rng.Uniform(2));
      for (int f = 0; f < facts; ++f) db.Insert(random_atom(p));
    }
    // Random marked atoms (events / pending deletions).
    IInterpretation interp(&db);
    RuleGrounding dummy(0, Tuple{});
    for (int m = 0; m < 4; ++m) {
      interp.AddMarked(
          rng.Bernoulli(0.5) ? ActionKind::kInsert : ActionKind::kDelete,
          random_atom(static_cast<int>(rng.Uniform(kNumPredicates))), dummy);
    }

    // Random safe rule.
    Rule rule;
    for (int attempt = 0;; ++attempt) {
      auto parsed = ParseRule(RandomRuleText(rng), symbols);
      if (parsed.ok()) {
        rule = std::move(parsed).value();
        break;
      }
      ASSERT_LT(attempt, 200) << "cannot generate a safe random rule";
    }
    SCOPED_TRACE("rule: " + RuleToString(rule, *symbols) +
                 "\n  db: " + db.ToString() +
                 "\n  interp: " + interp.ToString());

    const CompiledPlan plan = CompilePlan(rule, /*seed_index=*/-1, interp);
    if (Reordered(plan)) ++reordered;
    const std::set<std::string> oracle =
        OracleMatches(rule, interp, domain, *symbols);
    EXPECT_EQ(AsSet(Execute(plan, rule, interp, nullptr, *symbols)), oracle);

    // Every seed literal, seeded by every ground atom that makes it
    // valid (the semi-naive contract: seeds come from valid new marks).
    for (size_t s = 0; s < rule.body().size(); ++s) {
      const BodyLiteral& lit = rule.body()[s];
      const CompiledPlan seeded =
          CompilePlan(rule, static_cast<int>(s), interp);
      if (Reordered(seeded)) ++reordered;
      const int arity = symbols->PredicateArity(lit.atom.predicate);
      for (size_t code = 0; code < (arity == 2 ? 16u : 4u); ++code) {
        Tuple t;
        t.Append(domain[code % kNumConstants]);
        if (arity == 2) t.Append(domain[code / kNumConstants]);
        GroundAtom seed(lit.atom.predicate, std::move(t));
        if (!interp.IsValid(seed, lit.kind)) continue;
        SCOPED_TRACE(StrFormat("seed literal %zu = %s", s,
                               seed.ToString(*symbols).c_str()));
        const std::set<std::string> seeded_oracle = OracleMatches(
            rule, interp, domain, *symbols, static_cast<int>(s), &seed);
        EXPECT_EQ(AsSet(Execute(seeded, rule, interp, &seed, *symbols)),
                  seeded_oracle);
      }
    }
  }
  EXPECT_GT(reordered, 0) << "no scenario exercised a non-source order";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracleTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace park
