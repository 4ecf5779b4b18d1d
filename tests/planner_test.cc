// The cost-based join planner: literal ordering driven by storage
// statistics, probe-column selection, plan caching with drift-triggered
// replanning, and the invariant that a PlanCache's index requirements are
// exactly the probes of the plans it handed out (the prewarm contract).
// The executor itself is pinned by matcher_test and matcher_oracle_test;
// the thread/exec/Γ-mode sweep lives in planner_oracle_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "engine/matcher.h"
#include "lang/parser.h"

namespace park {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : symbols_(MakeSymbolTable()) {}

  Rule MustRule(std::string_view text) {
    auto rule = ParseRule(text, symbols_);
    EXPECT_TRUE(rule.ok()) << rule.status().ToString();
    return rule.ok() ? std::move(rule).value() : Rule();
  }

  Program MustProgram(std::string_view text) {
    auto program = ParseProgram(text, symbols_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return std::move(program).value();
  }

  Database MustDb(std::string_view facts) {
    return ParseDatabase(facts, symbols_).value();
  }

  /// Bindings produced by executing `plan`, rendered "X=a,Y=b" and sorted.
  std::vector<std::string> PlanMatches(const CompiledPlan& plan,
                                       const Rule& rule,
                                       const IInterpretation& interp) {
    std::vector<std::string> out;
    ExecutePlan(plan, rule, interp, /*seed=*/nullptr,
                [&](std::span<const Value> binding) {
                  std::string s;
                  for (size_t i = 0; i < binding.size(); ++i) {
                    if (i > 0) s += ",";
                    s += rule.variable_names()[i] + "=" +
                         binding[i].ToString(*symbols_);
                  }
                  out.push_back(s);
                });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The step literal order of a plan, as body indexes.
  static std::vector<int> Order(const CompiledPlan& plan) {
    std::vector<int> order;
    for (const CompiledStep& step : plan.steps) {
      order.push_back(step.literal_index);
    }
    return order;
  }

  std::shared_ptr<SymbolTable> symbols_;
};

/// A database where `big` dwarfs `sel`: big(i, i%4) for i in [0, 120),
/// sel(0) only.
std::string SkewedFacts() {
  std::string facts = "sel(c0).";
  for (int i = 0; i < 120; ++i) {
    facts += " big(x" + std::to_string(i) + ", c" + std::to_string(i % 4) +
             ").";
  }
  return facts;
}

TEST_F(PlannerTest, CostOrderStartsFromTheSmallStream) {
  Database db = MustDb(SkewedFacts());
  IInterpretation interp(&db);
  Rule rule = MustRule("big(X, Y), sel(Y) -> +out(X).");

  // sel's one row is the cheaper stream; big is then probed on its bound
  // second column instead of scanned.
  CompiledPlan cost = CompilePlan(rule, -1, interp);
  EXPECT_EQ(Order(cost), (std::vector<int>{1, 0}));
  ASSERT_EQ(cost.steps.size(), 2u);
  EXPECT_EQ(cost.steps[0].probe_column, -1);  // sel: full scan of 1 row
  EXPECT_EQ(cost.steps[1].probe_column, 1);   // big probed on Y
  EXPECT_LE(cost.steps[0].estimated_rows, 2.0);

  EXPECT_EQ(PlanMatches(cost, rule, interp),
            (std::vector<std::string>{
                "X=x0,Y=c0", "X=x100,Y=c0", "X=x104,Y=c0", "X=x108,Y=c0",
                "X=x112,Y=c0", "X=x116,Y=c0", "X=x12,Y=c0", "X=x16,Y=c0",
                "X=x20,Y=c0", "X=x24,Y=c0", "X=x28,Y=c0", "X=x32,Y=c0",
                "X=x36,Y=c0", "X=x4,Y=c0", "X=x40,Y=c0", "X=x44,Y=c0",
                "X=x48,Y=c0", "X=x52,Y=c0", "X=x56,Y=c0", "X=x60,Y=c0",
                "X=x64,Y=c0", "X=x68,Y=c0", "X=x72,Y=c0", "X=x76,Y=c0",
                "X=x8,Y=c0", "X=x80,Y=c0", "X=x84,Y=c0", "X=x88,Y=c0",
                "X=x92,Y=c0", "X=x96,Y=c0"}));
}

TEST_F(PlannerTest, GroundFiltersRunFirst) {
  Database db = MustDb("flag. p(a). p(b).");
  IInterpretation interp(&db);
  Rule rule = MustRule("p(X), flag -> +q(X).");
  CompiledPlan plan = CompilePlan(rule, -1, interp);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].literal_index, 1);  // the ground filter
  EXPECT_TRUE(plan.steps[0].filter);
  EXPECT_FALSE(plan.steps[1].filter);
}

TEST_F(PlannerTest, CostProbePicksTheMoreSelectiveColumn) {
  // fact(D, K, Z): column 0 has 2 distinct values, column 1 is a key.
  // After src binds D and K, the probe must use column 1 (~1 row per
  // probe), not the first bound position, column 0 (~30 rows per probe).
  std::string facts = "src(d0, k8).";
  for (int i = 0; i < 60; ++i) {
    facts += " fact(d" + std::to_string(i % 2) + ", k" + std::to_string(i) +
             ", z" + std::to_string(i) + ").";
  }
  Database db = MustDb(facts);
  IInterpretation interp(&db);
  Rule rule = MustRule("src(D, K), fact(D, K, Z) -> +out(Z).");

  CompiledPlan cost = CompilePlan(rule, -1, interp);
  ASSERT_EQ(Order(cost), (std::vector<int>{0, 1}));
  EXPECT_EQ(cost.steps[1].probe_column, 1);
  EXPECT_EQ(PlanMatches(cost, rule, interp),
            (std::vector<std::string>{"D=d0,K=k8,Z=z8"}));
}

TEST_F(PlannerTest, PlanIsAPureFunctionOfTheStatistics) {
  Database db = MustDb(SkewedFacts());
  IInterpretation interp(&db);
  Rule rule = MustRule("big(X, Y), sel(Y) -> +out(X).");
  CompiledPlan a = CompilePlan(rule, -1, interp);
  CompiledPlan b = CompilePlan(rule, -1, interp);
  EXPECT_EQ(Order(a), Order(b));
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].probe_column, b.steps[i].probe_column);
    EXPECT_EQ(a.steps[i].estimated_rows, b.steps[i].estimated_rows);
  }
}

TEST_F(PlannerTest, PlansDoNotDependOnWhenStatisticsWereBuilt) {
  // Statistics are built on first read. Two equal databases, one whose
  // relations had their stats read after every mutation and one whose
  // stats the planner builds itself, give the same explain text and the
  // same estimates for every plan, seeded or not.
  Program program = MustProgram(
      "r: big(X, Y), sel(Y) -> +out(X).\n"
      "s: src(D, K), fact(D, K, Z), big(Z, Y) -> +out(Y).\n"
      "t: fact(D, K, Z), !sel(K), +out(Z) -> -big(Z, D).\n");
  auto build = [&](bool read_stats) {
    Database db(symbols_);
    auto apply = [&](bool insert, std::string_view atom) {
      auto parsed = ParseDatabase(std::string(atom) + ".", symbols_);
      ASSERT_TRUE(parsed.ok());
      parsed->ForEach([&](const GroundAtom& a) {
        insert ? db.Insert(a) : db.Erase(a);
        if (read_stats) db.GetRelation(a.predicate())->stats();
      });
    };
    for (int i = 0; i < 240; ++i) {
      const std::string n = std::to_string(i);
      apply(true, "big(x" + n + ", c" + std::to_string(i % 6) + ")");
      apply(true, "fact(d" + std::to_string(i % 3) + ", k" + n + ", x" +
                      std::to_string(i % 50) + ")");
      if (i % 4 == 0) apply(false, "big(x" + std::to_string(i / 2) + ", c" +
                                       std::to_string(i / 2 % 6) + ")");
      if (i % 40 == 0) apply(true, "sel(c" + std::to_string(i / 40) + ")");
    }
    apply(true, "src(d1, k7)");
    return db;
  };
  Database read = build(true);
  Database unread = build(false);
  ASSERT_TRUE(read.SameAtoms(unread));
  IInterpretation read_interp(&read);
  IInterpretation unread_interp(&unread);
  for (IInterpretation* interp : {&read_interp, &unread_interp}) {
    auto marks = ParseDatabase("out(x3). out(x9). fact(d1, k2, x3).",
                               symbols_);
    ASSERT_TRUE(marks.ok());
    marks->ForEach([&](const GroundAtom& atom) {
      interp->Mark(ActionKind::kInsert, atom.view());
    });
  }

  auto explain = [&](const IInterpretation& interp) {
    std::string out;
    for (const Rule& rule : program.rules()) {
      for (int seed = -1; seed < static_cast<int>(rule.body().size());
           ++seed) {
        const CompiledPlan plan = CompilePlan(rule, seed, interp);
        out += ExplainPlanLine(ExplainPlan(plan)) + "\n";
        for (const CompiledStep& step : plan.steps) {
          out += std::to_string(step.estimated_rows) + " ";
        }
        out += std::to_string(plan.estimated_candidates) + "\n";
      }
    }
    return out;
  };
  EXPECT_FALSE(unread.GetRelation(
                         symbols_->FindPredicate("big", 2).value())
                   ->has_stats());
  EXPECT_EQ(explain(unread_interp), explain(read_interp));
}

TEST_F(PlannerTest, CacheHitsThenDriftTriggersReplan) {
  Program program = MustProgram("r: big(X, Y), sel(Y) -> +out(X).");
  Database db = MustDb(SkewedFacts());
  IInterpretation interp(&db);
  const Rule& rule = program.rules()[0];

  PlanCache cache(program);
  const CompiledPlan& first = cache.Get(rule, -1, interp);
  EXPECT_EQ(Order(first), (std::vector<int>{1, 0}));
  EXPECT_EQ(cache.plans_compiled(), 1u);
  EXPECT_EQ(cache.cache_hits(), 0u);

  cache.Get(rule, -1, interp);
  EXPECT_EQ(cache.plans_compiled(), 1u);
  EXPECT_EQ(cache.cache_hits(), 1u);
  EXPECT_EQ(cache.replans(), 0u);

  // Grow `sel` from 1 row to 500: far past the 2x+8 drift envelope, and
  // enough to flip the cheapest stream back to `big` (120 rows).
  for (int i = 0; i < 500; ++i) {
    db.InsertAtom("sel", {"s" + std::to_string(i)});
  }
  const CompiledPlan& replanned = cache.Get(rule, -1, interp);
  EXPECT_EQ(cache.plans_compiled(), 2u);
  EXPECT_EQ(cache.replans(), 1u);
  EXPECT_EQ(Order(replanned), (std::vector<int>{0, 1}));

  // Stable statistics: back to cache hits.
  cache.Get(rule, -1, interp);
  EXPECT_EQ(cache.plans_compiled(), 2u);
  EXPECT_EQ(cache.replans(), 1u);
}

TEST_F(PlannerTest, CompileListenerSeesEveryCompile) {
  Program program = MustProgram("r: big(X, Y), sel(Y) -> +out(X).");
  Database db = MustDb(SkewedFacts());
  IInterpretation interp(&db);
  const Rule& rule = program.rules()[0];

  PlanCache cache(program);
  std::vector<std::string> lines;
  cache.set_compile_listener([&](const PlanExplanation& explanation) {
    lines.push_back(ExplainPlanLine(explanation));
  });
  cache.Get(rule, -1, interp);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find("plan rule=0:"), 0u);
  EXPECT_NE(lines[0].find("lit1"), std::string::npos);
  EXPECT_EQ(lines[0].find("replan"), std::string::npos);

  for (int i = 0; i < 500; ++i) {
    db.InsertAtom("sel", {"s" + std::to_string(i)});
  }
  cache.Get(rule, -1, interp);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("(replan)"), std::string::npos);
}

TEST_F(PlannerTest, ExplainRendersTheSeedOfAOneLiteralBody) {
  // Seeding a one-literal body leaves no step to run; the line names the
  // seed literal instead of claiming the body is empty.
  Program program = MustProgram("r: p(X) -> +q(X). s: p(X), q(X) -> +r(X).");
  Database db = MustDb("p(a). q(a).");
  IInterpretation interp(&db);
  PlanCache cache(program);
  EXPECT_EQ(ExplainPlanLine(ExplainPlan(cache.Get(program.rules()[0], 0,
                                                  interp))),
            "plan rule=0 seed=0: lit0[seed]");
  const std::string unseeded =
      ExplainPlanLine(ExplainPlan(cache.Get(program.rules()[0], -1, interp)));
  EXPECT_EQ(unseeded.find("plan rule=0: lit0["), 0u) << unseeded;
  const std::string two_literals =
      ExplainPlanLine(ExplainPlan(cache.Get(program.rules()[1], 1, interp)));
  EXPECT_EQ(two_literals.find("plan rule=1 seed=1: lit0["), 0u)
      << two_literals;
  EXPECT_EQ(two_literals.find("[seed]"), std::string::npos) << two_literals;
}

// --- index requirements (the prewarm contract) -----------------------------

std::string RenderRequirements(const IndexRequirements& reqs) {
  auto render = [](const IndexRequirements::ColumnsByPredicate& columns,
                   const char* tag) {
    std::vector<std::string> entries;
    for (const auto& [pred, cols] : columns) {
      std::vector<int> sorted_cols = cols;
      std::sort(sorted_cols.begin(), sorted_cols.end());
      std::string entry = std::string(tag) + std::to_string(pred) + ":";
      for (int c : sorted_cols) entry += std::to_string(c) + ",";
      entries.push_back(entry);
    }
    std::sort(entries.begin(), entries.end());
    std::string out;
    for (const std::string& e : entries) out += e + ";";
    return out;
  };
  return render(reqs.base, "base/") + render(reqs.plus, "plus/") +
         render(reqs.minus, "minus/");
}

TEST_F(PlannerTest, CacheRequirementsAreTheProbesOfItsPlans) {
  // The parallel sections prewarm exactly cache.requirements(), so it
  // must cover every probe of every plan the cache handed out — and
  // nothing else. Drive the cache through every (rule, seed) slot, with
  // a replan in between, and compare against the plans' own probes.
  Program program = MustProgram(R"(
    t: edge(X, Y), edge(Y, Z), !blocked(Z) -> +path(X, Z).
    fire: +alarm(L), sensor(L, S) -> +notify(S).
    clear: -alarm(L), notify(S), sensor(L, S) -> -notify(S).
  )");
  Database db = MustDb("edge(a, b). sensor(l1, s1). notify(s1).");
  IInterpretation interp(&db);

  PlanCache cache(program);
  IndexRequirements expected;
  auto drive = [&] {
    for (const Rule& rule : program.rules()) {
      for (int s = -1; s < static_cast<int>(rule.body().size()); ++s) {
        AddPlanRequirements(cache.Get(rule, s, interp), expected);
      }
    }
  };
  drive();
  for (int i = 0; i < 200; ++i) {
    db.InsertAtom("edge", {"n" + std::to_string(i), "a"});
  }
  drive();
  EXPECT_GT(cache.replans(), 0u);
  EXPECT_EQ(RenderRequirements(cache.requirements()),
            RenderRequirements(expected));
}

}  // namespace
}  // namespace park
