// Tokenizer + source model for ptb-lint (tools/ptb_lint.cpp).
//
// ptb-lint was specified as a clang-tooling checker suite, but the
// canonical build container (and the GCC-only CI runner) has no clang
// development packages, and a checker that silently skips on exactly the
// hosts that run the tests is worth little. So the frontend is a small,
// dependency-free C++ lexer with just enough structure recognition
// (scopes, declarations, loops, call sites, structured comment markers)
// for the contract checks in checks.hpp — the same trade gem5's
// style-checker plane makes. The checker interface consumes this token
// model only, so a clang-AST frontend can replace it on hosts that have
// one without touching the checks.
//
// What the lexer understands that grep cannot:
//   - comments and string literals (no false hits inside either),
//   - raw strings, char literals, digit separators, line continuations,
//   - multi-char operators (`+=`, `->`, `::`, ...) as single tokens,
//   - structured `ptb-lint:` markers with own-line-applies-to-next-line
//     semantics (the NOLINTNEXTLINE convention).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace ptblint {

enum class Tok : unsigned char {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals (int/float/hex, digit separators)
  kString,  // "..." and R"(...)" (text excludes quotes)
  kChar,    // '...'
  kPunct,   // operators/punctuation; multi-char operators are one token
};

struct Token {
  Tok kind;
  std::string text;
  int line;  // 1-based
};

/// A structured `// ptb-lint: <directive>(<args>)` marker, or the legacy
/// `lint:allowed-wallclock` spelling (treated as allow(wallclock)).
struct Marker {
  std::string directive;  // "allow", "cycle-loop-file", ...
  std::string args;       // raw text inside the parens (may be empty)
  int line;               // line of the comment
  bool own_line;          // comment had no code before it on its line
};

struct SourceFile {
  std::string path;           // as given on the command line
  std::string rel;            // path relative to the scan root ('/'-sep)
  std::vector<Token> tokens;
  std::vector<Marker> markers;

  /// Lines suppressed for `check`: a same-line marker suppresses its own
  /// line; an own-line marker suppresses the next line that carries code.
  /// allow() with no argument suppresses every check on that line.
  bool allowed(std::string_view check, int line) const;

  /// True when the file carries `ptb-lint: <directive>` anywhere.
  bool has_marker(std::string_view directive) const;

  // Built by lex(): check name ("" = all) -> suppressed lines.
  std::map<std::string, std::set<int>, std::less<>> allow_lines;
};

/// Tokenizes `text` into `out` (path/rel are carried through for
/// reporting). Never fails: unterminated constructs lex as best-effort
/// tokens, which is fine for a linter.
void lex(std::string_view text, SourceFile& out);

/// Reads and tokenizes one file; returns false if unreadable.
bool lex_file(const std::string& path, const std::string& rel,
              SourceFile& out);

}  // namespace ptblint
