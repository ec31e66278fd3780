// Golden-bytes helper for the codec tests: hex_bytes("0d 0c 0b 0a") is the
// four raw bytes 0x0d 0x0c 0x0b 0x0a. Spaces are ignored so a layout can be
// written one field per string literal; any other non-hex character, or an
// odd digit count, is a typo in the test and throws.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace hdd::test {

inline std::string hex_bytes(std::string_view hex) {
  std::string out;
  int high = -1;
  for (const char c : hex) {
    int v = 0;
    if (c == ' ') continue;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else {
      throw std::invalid_argument("hex_bytes: bad digit");
    }
    if (high < 0) {
      high = v;
    } else {
      out.push_back(static_cast<char>((high << 4) | v));
      high = -1;
    }
  }
  if (high >= 0) throw std::invalid_argument("hex_bytes: odd digit count");
  return out;
}

}  // namespace hdd::test
