#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/strings.h"

namespace sparktune {

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double d) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = d;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

void Json::Append(Json v) { array_.push_back(std::move(v)); }

size_t Json::size() const {
  return type_ == Type::kArray ? array_.size() : object_.size();
}

const Json& Json::at(size_t i) const { return array_.at(i); }

void Json::Set(const std::string& key, Json v) {
  for (auto& kv : object_) {
    if (kv.first == key) {
      kv.second = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

const Json* Json::Get(const std::string& key) const {
  for (const auto& kv : object_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

double Json::GetNumberOr(const std::string& key, double fallback) const {
  const Json* v = Get(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

std::string Json::GetStringOr(const std::string& key,
                              const std::string& fallback) const {
  const Json* v = Get(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : fallback;
}

bool Json::GetBoolOr(const std::string& key, bool fallback) const {
  const Json* v = Get(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

namespace {

void EscapeTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpTo(const Json& j, std::string* out) {
  switch (j.type()) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += j.AsBool() ? "true" : "false";
      break;
    case Json::Type::kNumber: {
      double d = j.AsNumber();
      if (!std::isfinite(d)) {
        *out += "null";  // JSON has no inf/nan
        break;
      }
      // Byte-identical to "%lld" / "%.17g", without printf's format parse.
      char buf[32] = {};
      char* end =
          d == std::floor(d) && std::fabs(d) < 1e15
              ? std::to_chars(buf, buf + 32, static_cast<long long>(d)).ptr
              : std::to_chars(buf, buf + 32, d, std::chars_format::general,
                              17).ptr;
      out->append(buf, end);
      break;
    }
    case Json::Type::kString:
      EscapeTo(j.AsString(), out);
      break;
    case Json::Type::kArray: {
      *out += "[";
      bool first = true;
      for (const auto& e : j.elements()) {
        if (!first) *out += ",";
        first = false;
        DumpTo(e, out);
      }
      *out += "]";
      break;
    }
    case Json::Type::kObject: {
      *out += "{";
      bool first = true;
      for (const auto& [k, v] : j.items()) {
        if (!first) *out += ",";
        first = false;
        EscapeTo(k, out);
        *out += ":";
        DumpTo(v, out);
      }
      *out += "}";
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<Json> Parse() {
    SkipWs();
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != s_.size()) {
      return Status::InvalidArgument(
          StrFormat("trailing characters at offset %zu", pos_));
    }
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("%s at offset %zu", what.c_str(), pos_));
  }

  Result<Json> ParseValue() {
    if (pos_ >= s_.size()) return Err("unexpected end of input");
    char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == Json::kMaxParseDepth) {
        return Err(StrFormat("nesting deeper than %d", Json::kMaxParseDepth));
      }
      ++depth_;
      auto v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      auto r = ParseString();
      if (!r.ok()) return r.status();
      return Json::Str(std::move(*r));
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Json::Bool(true);
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Json::Bool(false);
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Json::Null();
    }
    return ParseNumber();
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Err("invalid value");
    // from_chars rounds as strtod does; a token it rejects or leaves
    // half-read ("+1", out of range, "1e") falls through to strtod.
    const char* last = s_.data() + pos_;
    double d = 0.0;
    auto [ptr, ec] = std::from_chars(s_.data() + start, last, d);
    if (ec == std::errc() && ptr == last) return Json::Number(d);
    char* end = nullptr;
    std::string tok = s_.substr(start, pos_ - start);
    d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("invalid number");
    return Json::Number(d);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) return Err("unterminated escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            auto code = ParseUnicodeEscape();
            if (!code.ok()) return code.status();
            AppendUtf8(*code, &out);
            break;
          }
          default:
            return Err("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return Err("unterminated string");
  }

  // The four hex digits of a unicode escape.
  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > s_.size()) return Err("bad \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Err("non-hex digit in \\u escape");
      }
      code = code * 16 + digit;
      ++pos_;
    }
    return code;
  }

  // The code point of a unicode escape whose backslash-u is consumed. A
  // high surrogate must be followed by an escaped low surrogate; the pair
  // decodes to one supplementary code point. Lone surrogates are errors.
  Result<uint32_t> ParseUnicodeEscape() {
    auto high = ParseHex4();
    if (!high.ok()) return high;
    if (*high >= 0xDC00 && *high <= 0xDFFF) {
      return Err("unpaired low surrogate in \\u escape");
    }
    if (*high < 0xD800 || *high > 0xDBFF) return high;
    if (s_.compare(pos_, 2, "\\u") != 0) {
      return Err("unpaired high surrogate in \\u escape");
    }
    pos_ += 2;
    auto low = ParseHex4();
    if (!low.ok()) return low;
    if (*low < 0xDC00 || *low > 0xDFFF) {
      return Err("unpaired high surrogate in \\u escape");
    }
    return 0x10000 + ((*high - 0xD800) << 10) + (*low - 0xDC00);
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<Json> ParseArray() {
    Consume('[');
    Json arr = Json::Array();
    SkipWs();
    if (Consume(']')) return arr;
    for (;;) {
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      arr.Append(std::move(*v));
      SkipWs();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Result<Json> ParseObject() {
    Consume('{');
    Json obj = Json::Object();
    SkipWs();
    if (Consume('}')) return obj;
    for (;;) {
      SkipWs();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      obj.Set(*key, std::move(*v));
      SkipWs();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects currently open
};

}  // namespace

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace sparktune
