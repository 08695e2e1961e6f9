#include "model/features.h"

#include <cassert>
#include <cmath>

namespace sparktune {

std::vector<FeatureKind> BuildFeatureSchema(const ConfigSpace& space,
                                            int num_context_features) {
  std::vector<FeatureKind> schema;
  schema.reserve(space.size() + static_cast<size_t>(num_context_features));
  for (const Parameter& p : space.params()) {
    schema.push_back(p.is_numeric() ? FeatureKind::kNumeric
                                    : FeatureKind::kCategorical);
  }
  for (int i = 0; i < num_context_features; ++i) {
    schema.push_back(FeatureKind::kDataSize);
  }
  return schema;
}

std::vector<double> EncodeFeatures(const ConfigSpace& space,
                                   const Configuration& c,
                                   std::span<const double> context) {
  assert(c.size() == space.size());
  std::vector<double> features;
  features.reserve(space.size() + context.size());
  for (size_t i = 0; i < space.size(); ++i) {
    features.push_back(space.param(i).ToUnit(c[i]));
  }
  features.insert(features.end(), context.begin(), context.end());
  return features;
}

double NormalizeDataSize(double data_size_gb, double reference_gb) {
  assert(reference_gb > 0.0);
  return std::log1p(std::max(0.0, data_size_gb)) / std::log1p(reference_gb);
}

std::array<double, 2> TimeOfDayContext(double hours_since_epoch) {
  double hour_of_day = std::fmod(hours_since_epoch, 24.0) / 24.0;
  double day_of_week = std::fmod(hours_since_epoch / 24.0, 7.0) / 7.0;
  return {hour_of_day, day_of_week};
}

}  // namespace sparktune
