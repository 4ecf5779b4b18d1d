#include "eca/update.h"

#include "lang/parser.h"
#include "util/string_util.h"

namespace park {

UpdateSet& UpdateSet::Add(ActionKind action, const GroundAtom& atom) {
  if (Staged(action).insert(atom).second) {
    updates_.push_back(Update{action, atom});
  }
  return *this;
}

Status UpdateSet::AddParsed(std::string_view text,
                            const std::shared_ptr<SymbolTable>& symbols) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return InvalidArgumentError("empty update (expected '+atom' or '-atom')");
  }
  ActionKind action;
  if (trimmed.front() == '+') {
    action = ActionKind::kInsert;
  } else if (trimmed.front() == '-') {
    action = ActionKind::kDelete;
  } else {
    return InvalidArgumentError(StrFormat(
        "update must start with '+' or '-': '%s'",
        std::string(trimmed).c_str()));
  }
  PARK_ASSIGN_OR_RETURN(GroundAtom atom,
                        ParseGroundAtom(trimmed.substr(1), symbols));
  Add(action, atom);
  return Status::OK();
}

bool UpdateSet::Contains(ActionKind action, const GroundAtom& atom) const {
  return Staged(action).contains(atom);
}

std::string UpdateSet::ToString(const SymbolTable& symbols) const {
  std::string out = "{";
  for (size_t i = 0; i < updates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += ActionKindSign(updates_[i].action);
    out += updates_[i].atom.ToString(symbols);
  }
  out += "}";
  return out;
}

}  // namespace park
