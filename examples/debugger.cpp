// Debugger: drive the PARK fixpoint one Δ transition at a time with
// ParkStepper, printing the live bi-structure ⟨B, I⟩ after every step —
// the paper's Theorem 4.1 (Δ is growing) made visible. Runs the §5
// example under the principle of inertia.

#include <cstdio>

#include "park/park.h"

int main() {
  auto symbols = park::MakeSymbolTable();
  auto program = park::ParseProgram(R"(
    r1: p -> +a.
    r2: p -> +q.
    r3: a -> +b.
    r4: a -> -q.
    r5: b -> +q.
  )", symbols);
  auto db = park::ParseDatabase("p.", symbols);
  if (!program.ok() || !db.ok()) {
    std::fprintf(stderr, "parse error\n");
    return 1;
  }

  park::ParkStepper stepper(*program, *db);
  std::printf("start        %s\n", stepper.Snapshot().ToString().c_str());

  int step = 0;
  while (!stepper.done()) {
    auto outcome = stepper.Step();
    if (!outcome.ok()) {
      std::fprintf(stderr, "step failed: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    ++step;
    const char* kind = "";
    switch (outcome->kind) {
      case park::StepOutcome::Kind::kGamma:
        kind = "gamma";
        break;
      case park::StepOutcome::Kind::kResolution:
        kind = "resolve";
        break;
      case park::StepOutcome::Kind::kFixpoint:
        kind = "fixpoint";
        break;
    }
    std::printf("step %-2d %-8s %s\n", step, kind,
                stepper.Snapshot().ToString().c_str());
    for (const park::Conflict& conflict : outcome->conflicts) {
      std::printf("        resolved: %s\n",
                  conflict.ToString(*program, *symbols).c_str());
    }
  }

  auto final_db = stepper.Finish();
  if (!final_db.ok()) {
    std::fprintf(stderr, "%s\n", final_db.status().ToString().c_str());
    return 1;
  }
  std::printf("\nPARK(P, D) = %s\n", final_db->ToString().c_str());
  std::printf("(%zu gamma steps, %zu restarts, %zu conflicts)\n",
              stepper.stats().gamma_steps, stepper.stats().restarts,
              stepper.stats().conflicts_resolved);
  return 0;
}
