#include "core/policy.h"

namespace park {
namespace {

class LambdaPolicy final : public ConflictResolutionPolicy {
 public:
  LambdaPolicy(
      std::string name,
      std::function<Result<Vote>(const PolicyContext&, const Conflict&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  std::string_view name() const override { return name_; }

  Result<Vote> Select(const PolicyContext& context,
                      const Conflict& conflict) override {
    return fn_(context, conflict);
  }

 private:
  std::string name_;
  std::function<Result<Vote>(const PolicyContext&, const Conflict&)> fn_;
};

}  // namespace

const char* VoteToString(Vote vote) {
  switch (vote) {
    case Vote::kInsert:
      return "insert";
    case Vote::kDelete:
      return "delete";
    case Vote::kAbstain:
      return "abstain";
  }
  return "?";
}

PolicyPtr MakeLambdaPolicy(
    std::string name,
    std::function<Result<Vote>(const PolicyContext&, const Conflict&)> fn) {
  return std::make_shared<LambdaPolicy>(std::move(name), std::move(fn));
}

std::string DescribeConflict(const PolicyContext& context,
                             const Conflict& conflict) {
  const SymbolTable& symbols = *context.program.symbols();
  std::string atom = conflict.atom.ToString(symbols);
  std::string out = "conflict on " + atom + "\n";
  out += "  currently " +
         std::string(context.database.Contains(conflict.atom)
                         ? "present in"
                         : "absent from") +
         " the database\n";
  auto append_side = [&](const ConflictSide& side) {
    for (GroundingView g : side) {
      out += "    ";
      AppendGrounding(out, g, context.program, symbols);
      out += "\n";
    }
  };
  out += "  insert commanded by:\n";
  append_side(conflict.inserters());
  out += "  delete commanded by:\n";
  append_side(conflict.deleters());
  return out;
}

}  // namespace park
