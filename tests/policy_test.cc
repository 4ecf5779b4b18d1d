#include "core/policy.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/park_evaluator.h"
#include "lang/parser.h"
#include "test_util.h"

namespace park {
namespace {

using ::park::testing_util::FreshGamma;

/// Fixture that manufactures a real conflict (via Γ) so policies see the
/// same shapes the evaluator hands them.
class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest()
      : symbols_(MakeSymbolTable()),
        program_(Program(symbols_)),
        db_(Database(symbols_)) {}

  /// Installs program/db and computes the single conflict.
  void Setup(std::string_view program_text, std::string_view facts) {
    program_ = ParseProgram(program_text, symbols_).value();
    db_ = ParseDatabase(facts, symbols_).value();
    interp_.emplace(&db_);
    GammaResult gamma = FreshGamma(program_, {}, *interp_);
    conflicts_ = BuildConflicts(gamma, *interp_);
    ASSERT_FALSE(conflicts_.empty());
  }

  PolicyContext Context() {
    return PolicyContext{db_, program_, *interp_, 0};
  }

  Vote MustSelect(const PolicyPtr& policy, const Conflict& conflict) {
    auto vote = policy->Select(Context(), conflict);
    EXPECT_TRUE(vote.ok()) << vote.status().ToString();
    return vote.ok() ? *vote : Vote::kAbstain;
  }

  std::shared_ptr<SymbolTable> symbols_;
  Program program_;
  Database db_;
  std::optional<IInterpretation> interp_;
  std::vector<Conflict> conflicts_;
};

TEST_F(PolicyTest, InertiaKeepsPresentAtom) {
  Setup("p -> +x. p -> -x.", "p. x.");
  EXPECT_EQ(MustSelect(MakeInertiaPolicy(), conflicts_[0]), Vote::kInsert);
}

TEST_F(PolicyTest, InertiaDropsAbsentAtom) {
  Setup("p -> +x. p -> -x.", "p.");
  EXPECT_EQ(MustSelect(MakeInertiaPolicy(), conflicts_[0]), Vote::kDelete);
}

TEST_F(PolicyTest, RulePriorityDefaultsToProgramPosition) {
  // Deleter is later in the program (higher default priority) -> delete.
  Setup("p -> +x. p -> -x.", "p.");
  EXPECT_EQ(MustSelect(MakeRulePriorityPolicy(), conflicts_[0]),
            Vote::kDelete);
}

TEST_F(PolicyTest, RulePriorityRespectsAnnotations) {
  Setup("[prio=10] p -> +x. [prio=1] p -> -x.", "p.");
  EXPECT_EQ(MustSelect(MakeRulePriorityPolicy(), conflicts_[0]),
            Vote::kInsert);
}

TEST_F(PolicyTest, RulePriorityTieAbstains) {
  Setup("[prio=5] p -> +x. [prio=5] p -> -x.", "p.");
  EXPECT_EQ(MustSelect(MakeRulePriorityPolicy(), conflicts_[0]),
            Vote::kAbstain);
}

TEST_F(PolicyTest, RulePriorityUsesMaxOfEachSide) {
  // Inserters at prio {1, 9}, deleter at prio {5}: max 9 > 5 -> insert.
  Setup("[prio=1] p -> +x. [prio=9] q -> +x. [prio=5] p -> -x.", "p. q.");
  EXPECT_EQ(MustSelect(MakeRulePriorityPolicy(), conflicts_[0]),
            Vote::kInsert);
}

TEST_F(PolicyTest, SpecificityPrefersLongerBody) {
  // The penguin principle: the rule with more conditions wins.
  Setup("bird(X) -> +flies(X). bird(X), penguin(X) -> -flies(X).",
        "bird(tweety). penguin(tweety).");
  EXPECT_EQ(MustSelect(MakeSpecificityPolicy(), conflicts_[0]),
            Vote::kDelete);
}

TEST_F(PolicyTest, SpecificityCountsConstantsOnTie) {
  Setup("p(X), q(X) -> +x. p(a), q(X) -> -x.", "p(a). q(a).");
  EXPECT_EQ(MustSelect(MakeSpecificityPolicy(), conflicts_[0]),
            Vote::kDelete);
}

TEST_F(PolicyTest, SpecificityAbstainsOnTie) {
  Setup("p -> +x. q -> -x.", "p. q.");
  EXPECT_EQ(MustSelect(MakeSpecificityPolicy(), conflicts_[0]),
            Vote::kAbstain);
}

TEST_F(PolicyTest, ConstantPolicies) {
  Setup("p -> +x. p -> -x.", "p.");
  EXPECT_EQ(MustSelect(MakeAlwaysInsertPolicy(), conflicts_[0]),
            Vote::kInsert);
  EXPECT_EQ(MustSelect(MakeAlwaysDeletePolicy(), conflicts_[0]),
            Vote::kDelete);
}

TEST_F(PolicyTest, RandomIsDeterministicGivenSeed) {
  Setup("p -> +x. p -> -x.", "p.");
  PolicyPtr a = MakeRandomPolicy(1234);
  PolicyPtr b = MakeRandomPolicy(1234);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(MustSelect(a, conflicts_[0]), MustSelect(b, conflicts_[0]));
  }
}

TEST_F(PolicyTest, RandomEventuallyVotesBothWays) {
  Setup("p -> +x. p -> -x.", "p.");
  PolicyPtr policy = MakeRandomPolicy(7);
  bool saw_insert = false;
  bool saw_delete = false;
  for (int i = 0; i < 100; ++i) {
    Vote v = MustSelect(policy, conflicts_[0]);
    saw_insert = saw_insert || v == Vote::kInsert;
    saw_delete = saw_delete || v == Vote::kDelete;
  }
  EXPECT_TRUE(saw_insert);
  EXPECT_TRUE(saw_delete);
}

TEST_F(PolicyTest, CompositeTakesFirstNonAbstain) {
  Setup("p -> +x. q -> -x.", "p. q. x.");
  // Specificity abstains (tie); inertia sees x in D -> insert.
  PolicyPtr policy = MakeCompositePolicy(
      {MakeSpecificityPolicy(), MakeInertiaPolicy()});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kInsert);
  EXPECT_EQ(policy->name(), "composite(specificity,inertia)");
}

TEST_F(PolicyTest, CompositeAllAbstainAbstains) {
  Setup("p -> +x. q -> -x.", "p. q.");
  PolicyPtr abstainer = MakeLambdaPolicy(
      "abstainer",
      [](const PolicyContext&, const Conflict&) -> Result<Vote> {
        return Vote::kAbstain;
      });
  PolicyPtr policy = MakeCompositePolicy({abstainer, abstainer});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kAbstain);
}

TEST_F(PolicyTest, VotingMajorityWins) {
  Setup("p -> +x. p -> -x.", "p.");
  PolicyPtr policy = MakeVotingPolicy({MakeAlwaysInsertPolicy(),
                                       MakeAlwaysInsertPolicy(),
                                       MakeAlwaysDeletePolicy()});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kInsert);
}

TEST_F(PolicyTest, VotingTieAbstains) {
  Setup("p -> +x. p -> -x.", "p.");
  PolicyPtr policy = MakeVotingPolicy(
      {MakeAlwaysInsertPolicy(), MakeAlwaysDeletePolicy()});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kAbstain);
}

TEST_F(PolicyTest, VotingAbstentionsDoNotCount) {
  Setup("p -> +x. p -> -x.", "p.");
  PolicyPtr abstainer = MakeLambdaPolicy(
      "abstainer",
      [](const PolicyContext&, const Conflict&) -> Result<Vote> {
        return Vote::kAbstain;
      });
  PolicyPtr policy = MakeVotingPolicy(
      {abstainer, abstainer, MakeAlwaysDeletePolicy()});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kDelete);
}

TEST_F(PolicyTest, VotingPropagatesCriticErrors) {
  Setup("p -> +x. p -> -x.", "p.");
  PolicyPtr failing = MakeLambdaPolicy(
      "failing",
      [](const PolicyContext&, const Conflict&) -> Result<Vote> {
        return AbortedError("critic unavailable");
      });
  PolicyPtr policy = MakeVotingPolicy({failing, MakeAlwaysInsertPolicy()});
  auto vote = policy->Select(Context(), conflicts_[0]);
  EXPECT_FALSE(vote.ok());
  EXPECT_EQ(vote.status().code(), StatusCode::kAborted);
}

TEST_F(PolicyTest, InteractiveStreamPolicy) {
  Setup("p -> +x. p -> -x.", "p.");
  std::istringstream in("bogus\ni\n");
  std::ostringstream out;
  PolicyPtr policy = MakeStreamInteractivePolicy(in, out);
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kInsert);
  // The prompt rendered the conflict and re-asked after the bogus answer.
  EXPECT_NE(out.str().find("conflict on x"), std::string::npos);
  EXPECT_NE(out.str().find("unrecognized"), std::string::npos);
}

TEST_F(PolicyTest, InteractiveStreamPolicyEofFails) {
  Setup("p -> +x. p -> -x.", "p.");
  std::istringstream in("");
  std::ostringstream out;
  PolicyPtr policy = MakeStreamInteractivePolicy(in, out);
  auto vote = policy->Select(Context(), conflicts_[0]);
  EXPECT_FALSE(vote.ok());
  EXPECT_EQ(vote.status().code(), StatusCode::kAborted);
}

TEST_F(PolicyTest, DescribeConflictMentionsEverything) {
  Setup("r1: p -> +x. r2: p -> -x.", "p. x.");
  std::string text = DescribeConflict(Context(), conflicts_[0]);
  EXPECT_NE(text.find("conflict on x"), std::string::npos);
  EXPECT_NE(text.find("present in"), std::string::npos);
  EXPECT_NE(text.find("(r1)"), std::string::npos);
  EXPECT_NE(text.find("(r2)"), std::string::npos);
}

TEST_F(PolicyTest, VoteToStringNames) {
  EXPECT_STREQ(VoteToString(Vote::kInsert), "insert");
  EXPECT_STREQ(VoteToString(Vote::kDelete), "delete");
  EXPECT_STREQ(VoteToString(Vote::kAbstain), "abstain");
}

TEST_F(PolicyTest, SourceReliabilityPrefersTrustedSource) {
  Setup("[src=1] p -> +x. [src=2] p -> -x.", "p.");
  // Source 2 is the trusted sensor network; source 1 is a heuristic.
  PolicyPtr policy = MakeSourceReliabilityPolicy({{1, 10}, {2, 90}});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kDelete);
  PolicyPtr reversed = MakeSourceReliabilityPolicy({{1, 90}, {2, 10}});
  EXPECT_EQ(MustSelect(reversed, conflicts_[0]), Vote::kInsert);
}

TEST_F(PolicyTest, SourceReliabilityDefaultsAndTies) {
  Setup("[src=1] p -> +x. p -> -x.", "p.");
  // Unannotated deleter scores default (0) vs source 1 at 50.
  PolicyPtr policy = MakeSourceReliabilityPolicy({{1, 50}});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kInsert);
  // Unknown source falls back to the default too: tie -> abstain.
  PolicyPtr unknown = MakeSourceReliabilityPolicy({{9, 50}});
  EXPECT_EQ(MustSelect(unknown, conflicts_[0]), Vote::kAbstain);
  // A negative default makes annotated rules win even unmapped.
  PolicyPtr negative = MakeSourceReliabilityPolicy({{1, 5}}, -10);
  EXPECT_EQ(MustSelect(negative, conflicts_[0]), Vote::kInsert);
}

TEST_F(PolicyTest, SourceReliabilityAsVotingCritic) {
  // The paper casts source reliability as one critic among several.
  Setup("[src=1] p -> +x. [src=2] p -> -x.", "p. x.");
  PolicyPtr policy = MakeVotingPolicy({
      MakeSourceReliabilityPolicy({{1, 1}, {2, 2}}),  // votes delete
      MakeInertiaPolicy(),                            // x ∈ D: insert
      MakeAlwaysInsertPolicy(),                       // insert
  });
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kInsert);
}

TEST_F(PolicyTest, PredicateBiasUsesTable) {
  Setup("p -> +x. p -> -x.", "p.");
  PolicyPtr policy = MakePredicateBiasPolicy(
      {{"x", Vote::kInsert}, {"other", Vote::kDelete}});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kInsert);
}

TEST_F(PolicyTest, PredicateBiasAbstainsOffTable) {
  Setup("p -> +x. p -> -x.", "p.");
  PolicyPtr policy =
      MakePredicateBiasPolicy({{"unrelated", Vote::kDelete}});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kAbstain);
}

TEST_F(PolicyTest, ProtectedPredicatesRefuseDeletion) {
  Setup("p -> +x. p -> -x.", "p.");
  PolicyPtr policy = MakeProtectedPredicatesPolicy({"x"});
  EXPECT_EQ(MustSelect(policy, conflicts_[0]), Vote::kInsert);
  PolicyPtr other = MakeProtectedPredicatesPolicy({"y"});
  EXPECT_EQ(MustSelect(other, conflicts_[0]), Vote::kAbstain);
}

TEST_F(PolicyTest, ProtectedPredicatesEndToEnd) {
  // Inertia alone would delete `ledger` rows (absent from D); protecting
  // the predicate keeps the insertion.
  auto symbols = MakeSymbolTable();
  auto program =
      ParseProgram("p -> +ledger. p -> -ledger. p -> +tmp. p -> -tmp.",
                   symbols);
  ASSERT_TRUE(program.ok());
  auto db = ParseDatabase("p.", symbols);
  ASSERT_TRUE(db.ok());
  ParkOptions options;
  options.policy = MakeCompositePolicy(
      {MakeProtectedPredicatesPolicy({"ledger"}), MakeInertiaPolicy()});
  auto result = Park(*program, *db, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->database.ToString(), "{ledger, p}");
}

}  // namespace
}  // namespace park
