#include "text/tokenizer.h"

#include <algorithm>
#include <functional>

#include "util/string_util.h"

namespace comparesets {

std::string LightStem(const std::string& token) {
  // Conservative plural/inflection stripping; only applied to longer
  // tokens so short words ("is", "was", "les") are untouched.
  if (token.size() >= 6 && EndsWith(token, "ing")) {
    return token.substr(0, token.size() - 3);
  }
  if (token.size() >= 5 && EndsWith(token, "ies")) {
    return token.substr(0, token.size() - 3) + "y";
  }
  if (token.size() >= 5 && EndsWith(token, "es") &&
      !EndsWith(token, "ses")) {
    return token.substr(0, token.size() - 1);  // "batteries" handled above.
  }
  if (token.size() >= 5 && EndsWith(token, "ed")) {
    return token.substr(0, token.size() - 2);
  }
  if (token.size() >= 4 && EndsWith(token, "s") && !EndsWith(token, "ss")) {
    return token.substr(0, token.size() - 1);
  }
  return token;
}

namespace {

// ASCII classification, independent of the process locale: what
// std::isalnum / std::tolower do in the "C" locale, without a library
// call per character.
bool IsAsciiAlnum(char c) {
  const auto lower = static_cast<unsigned char>(c | 0x20);
  return (c >= '0' && c <= '9') || (lower >= 'a' && lower <= 'z');
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}

}  // namespace

std::vector<std::string> Tokenize(std::string_view text,
                                  const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.empty()) return;
    if (options.light_stem) current = LightStem(current);
    if (current.size() >= options.min_token_length) {
      tokens.push_back(std::move(current));
    }
    current.clear();
  };
  for (char raw : text) {
    if (IsAsciiAlnum(raw)) {
      current.push_back(options.lowercase ? AsciiLower(raw) : raw);
    } else if (raw == '\'') {
      // Drop apostrophes inside words ("don't" -> "dont"), matching
      // common ROUGE tokenization.
      continue;
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

uint32_t TokenInterner::Intern(std::string_view token) {
  if (2 * (tokens_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(token) & mask;;
       i = (i + 1) & mask) {
    if (slots_[i] == 0) {
      tokens_.emplace_back(token);
      slots_[i] = static_cast<uint32_t>(tokens_.size());
      return slots_[i] - 1;
    }
    if (tokens_[slots_[i] - 1] == token) return slots_[i] - 1;
  }
}

size_t TokenInterner::ApproxMemoryBytes() const {
  size_t bytes = slots_.size() * sizeof(uint32_t);
  for (const std::string& token : tokens_) {
    bytes += sizeof(token) + token.size();
  }
  return bytes;
}

void TokenInterner::Grow() {
  slots_.assign(std::max<size_t>(64, 2 * slots_.size()), 0);
  const size_t mask = slots_.size() - 1;
  for (size_t id = 0; id < tokens_.size(); ++id) {
    size_t i = std::hash<std::string_view>{}(tokens_[id]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(id + 1);
  }
}

std::vector<uint32_t> TokenInterner::Intern(
    const std::vector<std::string>& tokens) {
  std::vector<uint32_t> ids;
  ids.reserve(tokens.size());
  for (const std::string& token : tokens) ids.push_back(Intern(token));
  return ids;
}

std::vector<std::string> SplitSentences(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == '.' || c == '!' || c == '?') {
      std::string_view trimmed = Trim(current);
      if (!trimmed.empty()) out.emplace_back(trimmed);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  std::string_view trimmed = Trim(current);
  if (!trimmed.empty()) out.emplace_back(trimmed);
  return out;
}

}  // namespace comparesets
