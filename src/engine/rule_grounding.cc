#include "engine/rule_grounding.h"

namespace park {

void AppendGrounding(std::string& out, GroundingView g, const Program& program,
                     const SymbolTable& symbols) {
  const Rule& rule = program.rule(g.rule_index());
  out += '(';
  if (rule.name().empty()) {
    out += "r#";
    out += std::to_string(g.rule_index());
  } else {
    out += rule.name();
  }
  const std::span<const Value> binding = g.binding();
  if (!binding.empty()) {
    out += ", [";
    for (size_t i = 0; i < binding.size(); ++i) {
      if (i > 0) out += ", ";
      out += rule.variable_names()[i];
      out += " <- ";
      binding[i].AppendTo(out, symbols);
    }
    out += ']';
  }
  out += ')';
}

std::string RuleGrounding::ToString(const Program& program,
                                    const SymbolTable& symbols) const {
  std::string out;
  AppendGrounding(out, view(), program, symbols);
  return out;
}

std::pair<uint32_t, bool> GroundingSet::Emplace(GroundingView g) {
  return table_.Emplace(Key(g), [&](const AtomView& key) {
    if (key.args.empty()) return key;
    // Bindings are a few Values each: a small first chunk keeps a short
    // set small.
    if (values_ == nullptr) values_ = std::make_unique<Arena>(1024);
    Value* copy = values_->AllocArray<Value>(key.args.size());
    std::copy(key.args.begin(), key.args.end(), copy);
    return AtomView{key.predicate, {copy, key.args.size()}};
  });
}

void GroundingSet::Clear() {
  table_.Clear();
  if (values_ != nullptr) values_->Reset();
}

}  // namespace park
