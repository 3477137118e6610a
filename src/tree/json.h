#ifndef RWDT_TREE_JSON_H_
#define RWDT_TREE_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "tree/tree.h"

namespace rwdt::tree {

/// A parsed JSON value. Objects preserve key order (JSON objects are
/// unordered per spec, but order matters for reproducible output).
class JsonValue;
using JsonPtr = std::shared_ptr<const JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  static JsonPtr Null();
  static JsonPtr Bool(bool b);
  static JsonPtr Number(double d);
  static JsonPtr String(std::string s);
  static JsonPtr Array(std::vector<JsonPtr> items);
  static JsonPtr Object(std::vector<std::pair<std::string, JsonPtr>> members);

  Kind kind() const { return kind_; }
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonPtr>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonPtr>>& members() const {
    return members_;
  }

  /// Looks up an object member; nullptr when absent or not an object.
  JsonPtr Get(std::string_view key) const;

  std::string ToString() const;

 private:
  explicit JsonValue(Kind kind) : kind_(kind) {}

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonPtr> items_;
  std::vector<std::pair<std::string, JsonPtr>> members_;
};

/// Parses a JSON document (full RFC-ish grammar: strings with escapes,
/// numbers, literals, arrays, objects). Object keys are interned into
/// `dict`, so key symbols are shared with JsonToTree and the schema
/// layer. Follows the library-wide parser shape
/// `Parse*(std::string_view, Interner*) -> Result<T>`. Arrays and objects
/// nesting deeper than kDefaultMaxDepth levels are refused with
/// kResourceExhausted.
Result<JsonPtr> ParseJson(std::string_view input, Interner* dict);

/// Maps a JSON document onto a labeled ordered tree (paper Figure 1):
/// object members become nodes labeled by their key; array elements
/// become children in order labeled `item_label`; scalars become leaf
/// text. The root is labeled `root_label`.
Tree JsonToTree(const JsonPtr& value, Interner* dict,
                const std::string& root_label = "root",
                const std::string& item_label = "_item");

}  // namespace rwdt::tree

#endif  // RWDT_TREE_JSON_H_
