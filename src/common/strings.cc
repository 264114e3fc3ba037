#include "src/common/strings.h"

#include <cstdlib>
#include <limits>

namespace rwle {

std::vector<std::string> SplitCommaList(const std::string& input) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos <= input.size()) {
    const std::size_t comma = input.find(',', pos);
    const std::size_t end = comma == std::string::npos ? input.size() : comma;
    if (end > pos) {
      tokens.push_back(input.substr(pos, end - pos));
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return tokens;
}

std::vector<std::uint32_t> ParseUintList(const std::string& input, bool* ok) {
  if (ok != nullptr) {
    *ok = true;
  }
  std::vector<std::uint32_t> values;
  for (const auto& token : SplitCommaList(input)) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' ||
        value > std::numeric_limits<std::uint32_t>::max()) {
      if (ok != nullptr) {
        *ok = false;
      }
      return {};
    }
    values.push_back(static_cast<std::uint32_t>(value));
  }
  return values;
}

}  // namespace rwle
