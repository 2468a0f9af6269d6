// Small string helpers shared across parsers and pretty-printers.
#ifndef XMLVERIFY_BASE_STRING_UTIL_H_
#define XMLVERIFY_BASE_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace xmlverify {

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Splits on `separator`, trimming whitespace from each piece and
/// dropping empty pieces.
std::vector<std::string> SplitAndTrim(std::string_view text, char separator);

/// Joins the pieces with `separator`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// Concatenates the pieces by appending each in turn. Use it where an
/// expression would start with a short literal added to a temporary
/// string (`"x" + std::to_string(i)`): libstdc++ builds that by
/// inserting at the front, and GCC 12 at -O3 flags the insert with a
/// spurious -Wrestrict warning.
template <typename... Pieces>
std::string StrCat(const Pieces&... pieces) {
  std::string out;
  out.reserve((std::string_view(pieces).size() + ... + 0));
  (out.append(std::string_view(pieces)), ...);
  return out;
}

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `name` is a valid identifier: [A-Za-z_][A-Za-z0-9_.-]*.
/// (XML names allow '.' and '-'; we accept them after the first char.)
bool IsValidName(std::string_view name);

}  // namespace xmlverify

#endif  // XMLVERIFY_BASE_STRING_UTIL_H_
