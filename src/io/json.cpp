#include "io/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/trace.h"

namespace swfomc::io {

JsonValue JsonValue::MakeBool(bool value) {
  JsonValue json;
  json.kind = Kind::kBool;
  json.boolean = value;
  return json;
}

JsonValue JsonValue::MakeNumber(std::string text) {
  JsonValue json;
  json.kind = Kind::kNumber;
  json.string = std::move(text);
  return json;
}

JsonValue JsonValue::MakeNumber(std::uint64_t value) {
  return MakeNumber(std::to_string(value));
}

JsonValue JsonValue::MakeNumber(double value) {
  // JSON has no representation for non-finite numbers; "%.17g" would
  // happily emit bare `inf`/`nan` tokens that no conforming parser (ours
  // included) accepts. Serialize them as null — a reader sees "value
  // unavailable" instead of a poisoned document.
  if (!std::isfinite(value)) return MakeNull();
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return MakeNumber(std::string(buffer));
}

JsonValue JsonValue::MakeString(std::string text) {
  JsonValue json;
  json.kind = Kind::kString;
  json.string = std::move(text);
  return json;
}

JsonValue JsonValue::MakeArray() {
  JsonValue json;
  json.kind = Kind::kArray;
  return json;
}

JsonValue JsonValue::MakeObject() {
  JsonValue json;
  json.kind = Kind::kObject;
  return json;
}

JsonValue& JsonValue::Add(std::string key, JsonValue value) {
  object.emplace_back(std::move(key), std::move(value));
  return object.back().second;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  if (kind != Kind::kObject) {
    throw std::runtime_error("json: At('" + key + "') on a non-object");
  }
  for (const auto& [name, value] : object) {
    if (name == key) return value;
  }
  throw std::runtime_error("json: missing key '" + key + "'");
}

bool JsonValue::Has(const std::string& key) const {
  if (kind != Kind::kObject) return false;
  for (const auto& [name, value] : object) {
    if (name == key) return true;
  }
  return false;
}

std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  obs::AppendJsonEscaped(&out, text);
  return out;
}

namespace {

void DumpTo(const JsonValue& value, int indent, int depth, std::string* out) {
  const bool pretty = indent >= 0;
  auto newline = [&](int levels) {
    if (!pretty) return;
    out->push_back('\n');
    out->append(static_cast<std::size_t>(indent) *
                    static_cast<std::size_t>(levels),
                ' ');
  };
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += value.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      *out += value.string;
      return;
    case JsonValue::Kind::kString:
      out->push_back('"');
      obs::AppendJsonEscaped(out, value.string);
      out->push_back('"');
      return;
    case JsonValue::Kind::kArray: {
      if (value.array.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(depth + 1);
        DumpTo(value.array[i], indent, depth + 1, out);
      }
      newline(depth);
      out->push_back(']');
      return;
    }
    case JsonValue::Kind::kObject: {
      if (value.object.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (std::size_t i = 0; i < value.object.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(depth + 1);
        out->push_back('"');
        *out += EscapeJson(value.object[i].first);
        *out += pretty ? "\": " : "\":";
        DumpTo(value.object[i].second, indent, depth + 1, out);
      }
      newline(depth);
      out->push_back('}');
      return;
    }
  }
}

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string_view source)
      : text_(text), source_(source) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) Fail("trailing data after the document");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    throw ParseError(std::string(source_), Here(), "json: " + why);
  }

  Location Here() const {
    Location location;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++location.line;
        location.column = 1;
      } else {
        ++location.column;
      }
    }
    return location;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue ParseValue() {
    char c = Peek();
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return JsonValue::MakeString(ParseString());
    if (ConsumeWord("true")) return JsonValue::MakeBool(true);
    if (ConsumeWord("false")) return JsonValue::MakeBool(false);
    if (ConsumeWord("null")) return JsonValue::MakeNull();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    Fail(std::string("unexpected character '") + c + "'");
  }

  JsonValue ParseNumber() {
    std::size_t start = pos_;
    auto digits = [&] {
      std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == before) Fail("malformed number");
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits();
    }
    return JsonValue::MakeNumber(std::string(text_.substr(start, pos_ - start)));
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("truncated escape");
        char escape = text_[pos_++];
        switch (escape) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                Fail("bad \\u escape digit");
              }
            }
            // UTF-8 encode (BMP only; surrogates unsupported).
            if (code >= 0xD800 && code <= 0xDFFF) {
              Fail("surrogate \\u escapes are unsupported");
            }
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            Fail("unsupported escape");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  JsonValue ParseObject() {
    JsonValue value = JsonValue::MakeObject();
    Expect('{');
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      std::string key = ParseString();
      if (value.Has(key)) Fail("duplicate object key '" + key + "'");
      Expect(':');
      value.Add(std::move(key), ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return value;
    }
  }

  JsonValue ParseArray() {
    JsonValue value = JsonValue::MakeArray();
    Expect('[');
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return value;
    }
  }

  std::string_view text_;
  std::string_view source_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(*this, indent, 0, &out);
  return out;
}

JsonValue ParseJson(std::string_view text, std::string_view source) {
  return JsonParser(text, source).Parse();
}

}  // namespace swfomc::io
