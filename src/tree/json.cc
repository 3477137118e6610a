#include "tree/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/max_depth.h"

namespace rwdt::tree {

JsonPtr JsonValue::Null() { return JsonPtr(new JsonValue(Kind::kNull)); }

JsonPtr JsonValue::Bool(bool b) {
  auto v = new JsonValue(Kind::kBool);
  v->bool_ = b;
  return JsonPtr(v);
}

JsonPtr JsonValue::Number(double d) {
  auto v = new JsonValue(Kind::kNumber);
  v->number_ = d;
  return JsonPtr(v);
}

JsonPtr JsonValue::String(std::string s) {
  auto v = new JsonValue(Kind::kString);
  v->string_ = std::move(s);
  return JsonPtr(v);
}

JsonPtr JsonValue::Array(std::vector<JsonPtr> items) {
  auto v = new JsonValue(Kind::kArray);
  v->items_ = std::move(items);
  return JsonPtr(v);
}

JsonPtr JsonValue::Object(
    std::vector<std::pair<std::string, JsonPtr>> members) {
  auto v = new JsonValue(Kind::kObject);
  v->members_ = std::move(members);
  return JsonPtr(v);
}

JsonPtr JsonValue::Get(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  return nullptr;
}

std::string JsonValue::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber: {
      char buf[32];
      if (number_ == std::floor(number_) && std::abs(number_) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", number_);
      } else {
        std::snprintf(buf, sizeof(buf), "%g", number_);
      }
      return buf;
    }
    case Kind::kString: {
      std::string out = "\"";
      for (char c : string_) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      return out;
    }
    case Kind::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ",";
        out += items_[i]->ToString();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"" + members_[i].first + "\":" +
               members_[i].second->ToString();
      }
      return out + "}";
    }
  }
  return "";
}

namespace {

class JsonParser {
 public:
  JsonParser(std::string_view input, Interner* dict)
      : input_(input), dict_(dict) {}

  Result<JsonPtr> Parse() {
    RWDT_ASSIGN_OR_RETURN(JsonPtr v, ParseValue());
    SkipWhitespace();
    if (pos_ != input_.size()) {
      return Status::ParseError("trailing characters at offset " +
                                std::to_string(pos_));
    }
    return v;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipWhitespace();
    return pos_ < input_.size() ? input_[pos_] : '\0';
  }

  Status Err(const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(pos_));
  }

  Result<JsonPtr> ParseValue() {
    switch (Peek()) {
      case '{':
      case '[': {
        // Each open array or object is one level. An error ends the
        // parse, so only a completed container closes its level.
        if (++depth_ > kDefaultMaxDepth) {
          return Status::ResourceExhausted(
              "JSON nests deeper than " + std::to_string(kDefaultMaxDepth) +
              " levels at offset " + std::to_string(pos_));
        }
        Result<JsonPtr> container =
            input_[pos_] == '{' ? ParseObject() : ParseArray();
        --depth_;
        return container;
      }
      case '"': {
        RWDT_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::String(std::move(s));
      }
      case 't':
        if (input_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return JsonValue::Bool(true);
        }
        return Err("bad literal");
      case 'f':
        if (input_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return JsonValue::Bool(false);
        }
        return Err("bad literal");
      case 'n':
        if (input_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return JsonValue::Null();
        }
        return Err("bad literal");
      default:
        return ParseNumber();
    }
  }

  Result<std::string> ParseString() {
    if (Peek() != '"') return Err("expected string");
    ++pos_;
    std::string out;
    while (pos_ < input_.size() && input_[pos_] != '"') {
      char c = input_[pos_++];
      if (c == '\\') {
        if (pos_ >= input_.size()) return Err("bad escape");
        const char esc = input_[pos_++];
        switch (esc) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > input_.size()) return Err("bad \\u escape");
            // Decode BMP code points to UTF-8.
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = input_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Err("bad \\u escape");
              }
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default:
            out += esc;  // '"', '\\', '/'
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= input_.size()) return Err("unterminated string");
    ++pos_;
    return out;
  }

  Result<JsonPtr> ParseNumber() {
    SkipWhitespace();
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '.' || input_[pos_] == 'e' ||
            input_[pos_] == 'E' || input_[pos_] == '+' ||
            input_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected value");
    const std::string text(input_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return Err("bad number");
    return JsonValue::Number(value);
  }

  Result<JsonPtr> ParseArray() {
    ++pos_;  // '['
    std::vector<JsonPtr> items;
    if (Peek() == ']') {
      ++pos_;
      return JsonValue::Array(std::move(items));
    }
    for (;;) {
      RWDT_ASSIGN_OR_RETURN(JsonPtr v, ParseValue());
      items.push_back(std::move(v));
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue::Array(std::move(items));
      }
      return Err("expected ',' or ']'");
    }
  }

  Result<JsonPtr> ParseObject() {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonPtr>> members;
    if (Peek() == '}') {
      ++pos_;
      return JsonValue::Object(std::move(members));
    }
    for (;;) {
      if (Peek() != '"') return Err("expected member key");
      RWDT_ASSIGN_OR_RETURN(std::string key, ParseString());
      dict_->Intern(key);
      if (Peek() != ':') return Err("expected ':'");
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(JsonPtr v, ParseValue());
      members.emplace_back(std::move(key), std::move(v));
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue::Object(std::move(members));
      }
      return Err("expected ',' or '}'");
    }
  }

  std::string_view input_;
  Interner* dict_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // open arrays and objects
};

void AttachJson(const JsonPtr& value, Interner* dict,
                const std::string& item_label, Tree* tree, NodeId node) {
  switch (value->kind()) {
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : value->members()) {
        const NodeId child = tree->AddChild(node, dict->Intern(key));
        AttachJson(member, dict, item_label, tree, child);
      }
      break;
    case JsonValue::Kind::kArray:
      for (const auto& item : value->items()) {
        const NodeId child = tree->AddChild(node, dict->Intern(item_label));
        AttachJson(item, dict, item_label, tree, child);
      }
      break;
    default:
      tree->mutable_node(node).text = value->ToString();
      break;
  }
}

}  // namespace

Result<JsonPtr> ParseJson(std::string_view input, Interner* dict) {
  return JsonParser(input, dict).Parse();
}

Tree JsonToTree(const JsonPtr& value, Interner* dict,
                const std::string& root_label,
                const std::string& item_label) {
  Tree tree;
  const NodeId root = tree.AddRoot(dict->Intern(root_label));
  AttachJson(value, dict, item_label, &tree, root);
  return tree;
}

}  // namespace rwdt::tree
