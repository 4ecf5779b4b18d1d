#include "storage/tuple.h"

namespace park {

std::string Tuple::ToString(const SymbolTable& table) const {
  if (values_.empty()) return "";
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString(table);
  }
  out += ")";
  return out;
}

}  // namespace park
