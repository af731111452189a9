#include "common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace ptb::json {

namespace {

bool plain_uint(std::string_view raw) {
  if (raw.empty()) return false;
  for (const char c : raw) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

bool Value::as_u64(std::uint64_t& out) const {
  if (kind_ != Kind::kNumber || !plain_uint(str_)) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(str_.c_str(), &end, 10);
  if (errno != 0 || end != str_.c_str() + str_.size()) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool Value::as_u32(std::uint32_t& out) const {
  std::uint64_t v = 0;
  if (!as_u64(v) || v > 0xffffffffull) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Value::get_string(std::string_view key, std::string& out) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_string()) return false;
  out = v->str_;
  return true;
}

bool Value::get_number(std::string_view key, double& out) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_number()) return false;
  out = v->num_;
  return true;
}

Value Value::null() { return Value{}; }

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double d) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  v.str_ = buf;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

Value Value::array_value(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------------
// Parser: strict recursive descent over a string_view cursor. Depth is
// bounded so a hostile request body ("[[[[[...") cannot blow the stack —
// this parser fronts a network service.
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(std::string_view text, std::string& err) : s_(text), err_(err) {}

  bool run(Value& out) {
    skip_ws();
    Value v;
    if (!value(v, 0)) return false;
    skip_ws();
    if (i_ != s_.size()) return fail("trailing garbage after document");
    out = std::move(v);
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& why) {
    err_ = "offset " + std::to_string(i_) + ": " + why;
    return false;
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  bool value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (i_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[i_];
    switch (c) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"': {
        std::string str;
        if (!string_token(str)) return false;
        out = Value::string(std::move(str));
        return true;
      }
      case 't':
        if (!literal("true")) return fail("bad literal");
        out = Value::boolean(true);
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out = Value::boolean(false);
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out = Value::null();
        return true;
      default: return number(out);
    }
  }

  bool object(Value& out, int depth) {
    ++i_;  // '{'
    Value v;
    v.kind_ = Value::Kind::kObject;
    skip_ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      out = std::move(v);
      return true;
    }
    while (true) {
      skip_ws();
      if (i_ >= s_.size() || s_[i_] != '"') return fail("expected key string");
      std::string key;
      if (!string_token(key)) return false;
      skip_ws();
      if (i_ >= s_.size() || s_[i_] != ':') return fail("expected ':'");
      ++i_;
      skip_ws();
      Value member;
      if (!value(member, depth + 1)) return false;
      v.members_.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (i_ >= s_.size()) return fail("unterminated object");
      if (s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (s_[i_] == '}') {
        ++i_;
        out = std::move(v);
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(Value& out, int depth) {
    ++i_;  // '['
    Value v;
    v.kind_ = Value::Kind::kArray;
    skip_ws();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      out = std::move(v);
      return true;
    }
    while (true) {
      skip_ws();
      Value item;
      if (!value(item, depth + 1)) return false;
      v.array_.push_back(std::move(item));
      skip_ws();
      if (i_ >= s_.size()) return fail("unterminated array");
      if (s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (s_[i_] == ']') {
        ++i_;
        out = std::move(v);
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool hex4(std::uint32_t& out) {
    if (i_ + 4 > s_.size()) return fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = s_[i_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("bad \\u escape digit");
    }
    out = v;
    return true;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  bool string_token(std::string& out) {
    ++i_;  // '"'
    out.clear();
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '"') {
        ++i_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++i_;
        continue;
      }
      ++i_;
      if (i_ >= s_.size()) return fail("truncated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!hex4(cp)) return false;
          // Surrogate pairs are passed through as two 3-byte sequences
          // (WTF-8); the documents this parser fronts never carry them.
          append_utf8(out, cp);
          break;
        }
        default: return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool number(Value& out) {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    const std::size_t digits0 = i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_])))
      ++i_;
    if (i_ == digits0) return fail("expected a value");
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      const std::size_t frac0 = i_;
      while (i_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[i_])))
        ++i_;
      if (i_ == frac0) return fail("digits required after '.'");
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      const std::size_t exp0 = i_;
      while (i_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[i_])))
        ++i_;
      if (i_ == exp0) return fail("digits required in exponent");
    }
    Value v;
    v.kind_ = Value::Kind::kNumber;
    v.str_.assign(s_.substr(start, i_ - start));
    v.num_ = std::strtod(v.str_.c_str(), nullptr);
    out = std::move(v);
    return true;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  std::string& err_;
};

bool parse(std::string_view text, Value& out, std::string& err) {
  return Parser(text, err).run(out);
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace ptb::json
