#include "storage/tuple.h"

namespace park {

std::string Tuple::ToString(const SymbolTable& table) const {
  if (empty()) return "";
  std::string out = "(";
  for (uint32_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    out += data()[i].ToString(table);
  }
  out += ")";
  return out;
}

}  // namespace park
