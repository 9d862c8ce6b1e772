#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace hido {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      break;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

namespace {

// Strips one optional leading '+' (std::from_chars only accepts '-').
// Rejects a '+' followed by another sign so "+-5" cannot sneak through as
// "-5" after the strip.
bool StripPlus(std::string_view& body) {
  if (body.empty() || body.front() != '+') return true;
  body.remove_prefix(1);
  return !body.empty() && body.front() != '+' && body.front() != '-';
}

}  // namespace

Result<double> ParseDouble(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not a number");
  }
  // std::from_chars: locale-independent ('.' is always the decimal point,
  // unlike strtod under an LC_NUMERIC locale) and overflow is reported
  // instead of silently saturating to +-HUGE_VAL on ERANGE.
  std::string_view body = trimmed;
  if (!StripPlus(body)) {
    return Status::ParseError("not a number: '" + std::string(trimmed) + "'");
  }
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(body.data(), body.data() + body.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return Status::ParseError("number out of range: '" +
                              std::string(trimmed) + "'");
  }
  if (ec != std::errc() || ptr != body.data() + body.size()) {
    return Status::ParseError("not a number: '" + std::string(trimmed) + "'");
  }
  if (!std::isfinite(value)) {
    return Status::ParseError("non-finite number: '" + std::string(trimmed) +
                              "'");
  }
  return value;
}

Result<int64_t> ParseInt(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not an integer");
  }
  // std::from_chars reports overflow; the strtoll it replaces silently
  // saturated "9223372036854775808" and beyond to LLONG_MAX on ERANGE.
  std::string_view body = trimmed;
  if (!StripPlus(body)) {
    return Status::ParseError("not an integer: '" + std::string(trimmed) +
                              "'");
  }
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(body.data(), body.data() + body.size(), value, 10);
  if (ec == std::errc::result_out_of_range) {
    return Status::ParseError("integer out of range: '" +
                              std::string(trimmed) + "'");
  }
  if (ec != std::errc() || ptr != body.data() + body.size()) {
    return Status::ParseError("not an integer: '" + std::string(trimmed) +
                              "'");
  }
  return value;
}

Result<uint64_t> ParseUInt(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return Status::ParseError("empty string is not an unsigned integer");
  }
  std::string_view body = trimmed;
  if (!StripPlus(body)) {
    return Status::ParseError("not an unsigned integer: '" +
                              std::string(trimmed) + "'");
  }
  if (!body.empty() && body.front() == '-') {
    return Status::ParseError("negative value is not an unsigned integer: '" +
                              std::string(trimmed) + "'");
  }
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(body.data(), body.data() + body.size(), value, 10);
  if (ec == std::errc::result_out_of_range) {
    return Status::ParseError("unsigned integer out of range: '" +
                              std::string(trimmed) + "'");
  }
  if (ec != std::errc() || ptr != body.data() + body.size()) {
    return Status::ParseError("not an unsigned integer: '" +
                              std::string(trimmed) + "'");
  }
  return value;
}

bool IsMissingToken(std::string_view text) {
  const std::string_view t = Trim(text);
  if (t.empty() || t == "?") return true;
  const auto equals_lowered = [t](std::string_view word) {
    if (t.size() != word.size()) return false;
    for (size_t i = 0; i < t.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(t[i])) != word[i]) {
        return false;
      }
    }
    return true;
  };
  return equals_lowered("na") || equals_lowered("nan") ||
         equals_lowered("null");
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  HIDO_CHECK(needed >= 0);
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

}  // namespace hido
