// Shared plumbing for the ptb-* command-line tools: whole-file IO with '-'
// as stdout, and small argument-parsing helpers. Tools stay dependency-free
// (no simulation code) — keep this header that way too.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace ptb::tools {

/// Writes `text` to `path`; '-' writes to stdout. Returns false when the
/// file is not writable.
inline bool write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

/// Slurps `path` into `out`; returns false when unreadable.
inline bool read_text(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, got);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// Strict double parse (whole string must consume); false on garbage.
inline bool parse_double_arg(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

/// Strict u64 parse: decimal digits only (no sign, no whitespace), no
/// overflow; false otherwise.
inline bool parse_u64_arg(const char* s, std::uint64_t& out) {
  if (*s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

/// Strict u32 parse, same rules as parse_u64_arg; false on garbage or a
/// value above UINT32_MAX.
inline bool parse_u32_arg(const char* s, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64_arg(s, v) || v > UINT32_MAX) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace ptb::tools
