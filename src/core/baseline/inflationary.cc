#include "core/baseline/inflationary.h"

#include "util/string_util.h"

namespace park {

Result<IInterpretation> UnblockedFixpoint(const Program& program,
                                          const Database& base,
                                          size_t max_steps,
                                          size_t* steps_out) {
  IInterpretation interp(&base);
  BlockedSet no_blocked;
  PlanCache plans(program);
  size_t steps = 0;
  while (true) {
    if (steps >= max_steps) {
      return ResourceExhaustedError(StrFormat(
          "inflationary fixpoint exceeded max_steps=%zu", max_steps));
    }
    // Applied consistent or not: this fixpoint ignores conflicts. A
    // section that adds no mark is the fixpoint's and leaves I as it was.
    GammaResult gamma = ComputeGamma(program, no_blocked, interp, plans);
    if (ApplyDerivations(gamma.derivations, interp) == 0) break;
    ++steps;
  }
  if (steps_out != nullptr) *steps_out = steps;
  return interp;
}

Result<InflationaryResult> InflationaryFixpoint(const Program& program,
                                                const Database& db,
                                                size_t max_steps) {
  size_t steps = 0;
  PARK_ASSIGN_OR_RETURN(IInterpretation interp,
                        UnblockedFixpoint(program, db, max_steps, &steps));
  InflationaryResult result{Database(db.symbols()), interp.IsConsistent(),
                            steps, interp.SortedLiteralStrings()};
  result.database =
      result.consistent ? std::move(interp).Incorporate() : db.Clone();
  return result;
}

}  // namespace park
