// Typed tuning parameter definitions. A parameter is Int, Float (linear or
// log scale), Categorical or Bool; every parameter maps to and from the unit
// interval [0,1] so optimizers can work in a normalized cube.
#pragma once

#include <string>
#include <vector>

namespace sparktune {

enum class ParamType { kInt, kFloat, kCategorical, kBool };

class Parameter {
 public:
  static Parameter Int(std::string name, int64_t lo, int64_t hi,
                       int64_t default_value, bool log_scale = false);
  static Parameter Float(std::string name, double lo, double hi,
                         double default_value, bool log_scale = false);
  static Parameter Categorical(std::string name,
                               std::vector<std::string> categories,
                               int default_index);
  static Parameter Bool(std::string name, bool default_value);

  const std::string& name() const { return name_; }
  ParamType type() const { return type_; }
  bool is_numeric() const {
    return type_ == ParamType::kInt || type_ == ParamType::kFloat;
  }
  bool log_scale() const { return log_scale_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  const std::vector<std::string>& categories() const { return categories_; }
  size_t num_categories() const { return categories_.size(); }

  // Internal numeric representation of the default (value for numerics,
  // category index for categorical, 0/1 for bool).
  double default_value() const { return default_value_; }

  // Map an internal value to [0,1]. Ints/floats respect log scaling;
  // categorical index i maps to the bucket center (i + 0.5) / k.
  double ToUnit(double value) const;
  // Inverse of ToUnit: produces a legal internal value (ints rounded,
  // categorical floored to a bucket, everything clamped to the domain).
  double FromUnit(double unit) const;
  // Clamp + round an internal value into the legal domain.
  double Legalize(double value) const;

  // Render the internal value for logs/tables (category name for
  // categoricals, "true"/"false" for bools).
  std::string FormatValue(double value) const;

 private:
  Parameter() = default;
  void CacheLogBounds();

  std::string name_;
  ParamType type_ = ParamType::kFloat;
  double lo_ = 0.0;
  double hi_ = 1.0;
  bool log_scale_ = false;
  // log(lo) and log(hi) - log(lo) of a log-scale numeric, computed once at
  // construction; the unit codec's hot path reuses them.
  double log_lo_ = 0.0;
  double log_span_ = 0.0;
  double default_value_ = 0.0;
  std::vector<std::string> categories_;
};

}  // namespace sparktune
