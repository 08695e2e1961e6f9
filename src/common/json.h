// Minimal JSON value with parser and serializer. Used by the data
// repository (src/service) to persist run histories and meta-knowledge.
// Supports the JSON subset we emit: object, array, string, double, bool,
// null. Object key order is preserved for stable round-trips.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace sparktune {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double d);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }

  // Array access.
  void Append(Json v);
  size_t size() const;
  const Json& at(size_t i) const;

  // Object access. Set overwrites; Get returns nullptr if missing.
  void Set(const std::string& key, Json v);
  const Json* Get(const std::string& key) const;
  bool Has(const std::string& key) const { return Get(key) != nullptr; }
  const std::vector<std::pair<std::string, Json>>& items() const {
    return object_;
  }
  const std::vector<Json>& elements() const { return array_; }

  // Typed getters with fallback; simplify repository reads.
  double GetNumberOr(const std::string& key, double fallback) const;
  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;

  // Compact single-line serialization.
  std::string Dump() const;

  // Arrays and objects nested deeper than kMaxParseDepth parse to
  // kInvalidArgument. The parser recurses once per level, so the bound is
  // what keeps a hostile document (e.g. a 16 MiB frame of '[') from
  // overflowing the stack.
  static constexpr int kMaxParseDepth = 256;
  static Result<Json> Parse(const std::string& text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace sparktune
