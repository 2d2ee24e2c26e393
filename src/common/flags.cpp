#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace vc {
namespace {

[[noreturn]] void fail(const std::string& flag, const std::string& reason) {
  std::fprintf(stderr, "%s: %s\n", flag.c_str(), reason.c_str());
  std::exit(2);
}

bool is_flag(const std::string& token) { return token.rfind("--", 0) == 0; }

/// The whole of `text` as a T; nullopt when it is not one.
template <typename T>
std::optional<T> parse(const std::string& text) {
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

}  // namespace

Flags::Flags(int argc, char** argv, int first)
    : tokens_(argv + std::min(first, argc), argv + argc), read_(tokens_.size(), false) {}

const std::string* Flags::read(const char* name, bool valued) {
  const auto it = std::find(tokens_.begin(), tokens_.end(), name);
  if (it == tokens_.end()) return nullptr;
  if (std::find(it + 1, tokens_.end(), name) != tokens_.end()) fail(name, "given more than once");
  auto i = static_cast<std::size_t>(it - tokens_.begin());
  read_[i] = true;
  if (!valued) return &tokens_[i];
  if (++i == tokens_.size() || is_flag(tokens_[i])) fail(name, "missing value");
  read_[i] = true;
  return &tokens_[i];
}

bool Flags::has(const char* name) { return read(name, false) != nullptr; }

std::string Flags::text(const char* name, const std::string& fallback) {
  const std::string* v = read(name, true);
  return v != nullptr ? *v : fallback;
}

int Flags::integer(const char* name, int fallback, int min) {
  const std::string* v = read(name, true);
  return v != nullptr ? parse_integer(name, *v, min) : fallback;
}

double Flags::number(const char* name, double fallback) {
  const std::string* v = read(name, true);
  if (v == nullptr) return fallback;
  const auto out = parse<double>(*v);
  if (!out || !std::isfinite(*out)) fail(name, "'" + *v + "' is not a number");
  return *out;
}

int Flags::parse_integer(const char* flag, const std::string& text, int min) {
  const auto out = parse<int>(text);
  if (!out) fail(flag, "'" + text + "' is not an integer");
  if (*out < min) fail(flag, "'" + text + "' is below " + std::to_string(min));
  return *out;
}

void Flags::reject_unread() const {
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (!read_[i]) fail(tokens_[i], is_flag(tokens_[i]) ? "unknown flag" : "unexpected argument");
  }
}

}  // namespace vc
