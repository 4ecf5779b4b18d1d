// Shared helpers for the PARK test suites.

#ifndef PARK_TESTS_TEST_UTIL_H_
#define PARK_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "park/park.h"

namespace park {
namespace testing_util {

/// Parses `text` as a program over `symbols`, failing the test on error.
inline Program MustParseProgram(std::string_view text,
                                std::shared_ptr<SymbolTable> symbols) {
  auto result = ParseProgram(text, std::move(symbols));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return Program(MakeSymbolTable());
  return std::move(result).value();
}

/// Parses `text` as facts over `symbols`, failing the test on error.
inline Database MustParseDatabase(std::string_view text,
                                  std::shared_ptr<SymbolTable> symbols) {
  auto result = ParseDatabase(text, std::move(symbols));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return Database(MakeSymbolTable());
  return std::move(result).value();
}

/// Sequential Γ(P,B)(I) through a fresh plan cache, for tests that
/// evaluate Γ directly instead of through ParkStepper.
inline GammaResult FreshGamma(const Program& program, const BlockedSet& blocked,
                              const IInterpretation& interp,
                              ExecMode exec = ExecMode::kTuple) {
  PlanCache plans(program);
  return ComputeGamma(program, blocked, interp, plans, /*parallel=*/nullptr,
                      /*cancel=*/nullptr, exec);
}

/// Runs PARK(P, D) from textual program/facts; failing the test on any
/// error. Returns the full ParkResult.
inline ParkResult MustPark(std::string_view program_text,
                           std::string_view facts_text,
                           ParkOptions options = {}) {
  auto symbols = MakeSymbolTable();
  Program program = MustParseProgram(program_text, symbols);
  Database db = MustParseDatabase(facts_text, symbols);
  if (program.symbols() != symbols || db.symbols() != symbols) {
    // A parse failure was already reported; return an inert result.
    return ParkResult{Database(MakeSymbolTable()), {}, Trace{}, {}, {}};
  }
  auto result = Park(program, db, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) {
    return ParkResult{Database(MakeSymbolTable()), {}, Trace{}, {}, {}};
  }
  return std::move(result).value();
}

/// Runs PARK(P, D) and returns the result database rendered as
/// "{atom, atom, ...}".
inline std::string ParkToString(std::string_view program_text,
                                std::string_view facts_text,
                                ParkOptions options = {}) {
  return MustPark(program_text, facts_text, std::move(options))
      .database.ToString();
}

}  // namespace testing_util
}  // namespace park

#endif  // PARK_TESTS_TEST_UTIL_H_
