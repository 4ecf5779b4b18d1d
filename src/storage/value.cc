#include "storage/value.h"

#include <charconv>

#include "util/string_util.h"

namespace park {

Value ConstantFromText(std::string_view text, SymbolTable& symbols) {
  if (!text.empty() &&
      (std::isdigit(static_cast<unsigned char>(text.front())) ||
       (text.front() == '-' && text.size() > 1))) {
    auto value = ParseInt64(text);
    if (value.has_value()) return Value::Int(*value);
  }
  return Value::Symbol(symbols.InternSymbol(text));
}

std::string Value::ToString(const SymbolTable& table) const {
  std::string out;
  AppendTo(out, table);
  return out;
}

void Value::AppendTo(std::string& out, const SymbolTable& table) const {
  switch (type_) {
    case ValueType::kSymbol:
      out += table.SymbolName(static_cast<SymbolId>(payload_));
      return;
    case ValueType::kInt: {
      char digits[24];
      const auto end = std::to_chars(digits, digits + sizeof(digits),
                                     static_cast<int64_t>(payload_));
      out.append(digits, end.ptr);
      return;
    }
    case ValueType::kString: {
      const std::string& raw =
          table.SymbolName(static_cast<SymbolId>(payload_));
      out += '"';
      for (char c : raw) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      return;
    }
  }
  out += "<invalid>";
}

}  // namespace park
