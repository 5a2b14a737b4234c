// Word tokenizer used for ROUGE scoring and aspect extraction.
//
// Mirrors the standard ROUGE preprocessing: lowercase, split on
// non-alphanumeric characters, keep pure-number tokens. Characters are
// classified as ASCII whatever the process locale (bytes >= 0x80 are
// separators, as in the "C" locale). No stemming by
// default (an optional light suffix stripper is provided for the aspect
// extractor, which benefits from conflating plurals).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace comparesets {

struct TokenizerOptions {
  bool lowercase = true;
  /// Strips trivial English suffixes ("-s", "-es", "-ing", "-ed") from
  /// tokens of length >= 5. Off for ROUGE, on for aspect extraction.
  bool light_stem = false;
  /// Drops tokens shorter than this after processing.
  size_t min_token_length = 1;
};

/// Splits text into word tokens.
std::vector<std::string> Tokenize(std::string_view text,
                                  const TokenizerOptions& options = {});

/// Maps tokens to dense ids 0, 1, 2, ... in first-seen order. ROUGE
/// counts depend only on token equality, so ids need only be consistent
/// among the documents one interner saw: a one-off scoring call interns
/// per call and drops the dictionary with it, while a served instance
/// keeps one interner for all of its reviews (eval/alignment.h).
class TokenInterner {
 public:
  uint32_t Intern(std::string_view token);
  std::vector<uint32_t> Intern(const std::vector<std::string>& tokens);

  /// Number of distinct tokens seen; every id is below it.
  size_t size() const { return tokens_.size(); }
  /// Approximate heap footprint (for cache accounting).
  size_t ApproxMemoryBytes() const;

 private:
  /// Doubles the slot table and re-inserts every id.
  void Grow();

  std::vector<std::string> tokens_;  ///< id -> token.
  /// Open-addressing hash table, linear probing, at most half full: each
  /// slot holds id + 1, or 0 when empty. Its size is a power of two.
  std::vector<uint32_t> slots_;
};

/// Light suffix stripper used when TokenizerOptions::light_stem is set.
std::string LightStem(const std::string& token);

/// Splits text into sentences on '.', '!', '?' (keeping abbreviations is
/// not attempted; review text is informal). Empty sentences are dropped.
std::vector<std::string> SplitSentences(std::string_view text);

}  // namespace comparesets
