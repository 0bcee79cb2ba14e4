#ifndef DBS3_TOOLS_TIDY_PORTABLE_TIDY_SOURCE_H_
#define DBS3_TOOLS_TIDY_PORTABLE_TIDY_SOURCE_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

// Tokenized view of one C++ source file, the input of the portable
// dbs3-tidy checks (tools/dbs3-tidy/portable/tidy_checks.h).
//
// This is deliberately NOT a C++ parser: the engine's invariants stay
// enforceable anywhere a C++ compiler runs, with no clang-tidy dev headers.
// The lexer strips comments and literals exactly, records NOLINT
// suppressions, and matches bracket pairs; the checks work on that token
// stream with scope heuristics tuned to this codebase's style.

namespace dbs3_tidy {

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString, kChar };
  Kind kind;
  std::string text;
  int line = 0;
};

/// One diagnostic: `check` in kebab-case (e.g. "dbs3-quota-pairing").
struct Diag {
  std::string file;
  int line = 0;
  std::string check;
  std::string message;
};

class TidySource {
 public:
  /// Tokenizes `content` (as file `path`). Comments, string/char literals
  /// and preprocessor directives produce no code tokens (strings shrink to
  /// one kString token); NOLINT / NOLINTNEXTLINE comments are recorded.
  TidySource(std::string path, const std::string& content);

  const std::string& path() const { return path_; }
  const std::vector<Token>& tokens() const { return tokens_; }

  /// Index of the bracket matching tokens()[i] (for '(', ')', '{', '}',
  /// '[', ']'), or npos when unbalanced.
  size_t MatchingBracket(size_t i) const;

  /// True when `check` is suppressed on `line` by a NOLINT(check) or a
  /// NOLINTNEXTLINE(check) on the preceding line. A bare NOLINT (no list)
  /// suppresses every check.
  bool IsSuppressed(int line, const std::string& check) const;

  static constexpr size_t npos = static_cast<size_t>(-1);

 private:
  void Tokenize(const std::string& content);
  void MatchBrackets();
  void RecordNolint(const std::string& comment, int line);

  std::string path_;
  std::vector<Token> tokens_;
  std::vector<size_t> match_;
  /// line -> suppressed check names ("" = all checks).
  std::map<int, std::set<std::string>> nolint_;
};

/// Reads `path` and tokenizes it; returns nullptr-equivalent empty source
/// (no tokens) with `error` set when the file cannot be read.
TidySource LoadSource(const std::string& path, std::string* error);

}  // namespace dbs3_tidy

#endif  // DBS3_TOOLS_TIDY_PORTABLE_TIDY_SOURCE_H_
