#include "src/common/string_util.h"

#include <cctype>
#include <charconv>

namespace seqhide {

std::vector<std::string> Split(std::string_view text, char sep,
                               bool skip_empty) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) pos = text.size();
    std::string_view piece = text.substr(start, pos - start);
    if (!piece.empty() || !skip_empty) out.emplace_back(piece);
    if (pos == text.size()) break;
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  while (b < text.size() && std::isspace(static_cast<unsigned char>(text[b]))) {
    ++b;
  }
  size_t e = text.size();
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) {
    --e;
  }
  return text.substr(b, e - b);
}

std::string StrCat(std::initializer_list<std::string_view> pieces) {
  size_t total = 0;
  for (std::string_view piece : pieces) total += piece.size();
  std::string out;
  out.reserve(total);
  for (std::string_view piece : pieces) out.append(piece);
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::optional<int64_t> ParseInt64(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  int64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

}  // namespace seqhide
