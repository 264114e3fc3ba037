// Small string helpers shared by benchmark binaries and tools.
#ifndef RWLE_SRC_COMMON_STRINGS_H_
#define RWLE_SRC_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rwle {

// Splits on commas; empty tokens are dropped ("1,,2" -> {"1","2"}).
std::vector<std::string> SplitCommaList(const std::string& input);

// Parses a comma-separated list of non-negative integers; returns an empty
// vector (and sets *ok=false if provided) on any malformed token, including
// one that does not fit in 32 bits.
std::vector<std::uint32_t> ParseUintList(const std::string& input, bool* ok = nullptr);

}  // namespace rwle

#endif  // RWLE_SRC_COMMON_STRINGS_H_
