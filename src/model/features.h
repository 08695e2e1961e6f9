// Feature encoding: Configuration (+ workload context) -> normalized
// surrogate input. Numeric/bool/categorical parameters map to unit-cube
// coordinates; workload context features (data size, or hour-of-day /
// day-of-week when data size is unobservable, §3.3) are appended as
// kDataSize-kind features handled by the SE kernel.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "model/kernel.h"
#include "space/config_space.h"

namespace sparktune {

// Kernel schema for `space` plus `num_context_features` trailing
// data-size/context features. Int/Float -> kNumeric; Categorical/Bool ->
// kCategorical.
std::vector<FeatureKind> BuildFeatureSchema(const ConfigSpace& space,
                                            int num_context_features = 0);

// Encode a configuration (unit-cube per parameter) followed by the given
// pre-normalized context features, into one vector allocated once.
std::vector<double> EncodeFeatures(const ConfigSpace& space,
                                   const Configuration& c,
                                   std::span<const double> context = {});

// Normalize a data size (GB) into a stable [0, ~1] coordinate:
// log1p(ds) / log1p(reference). Values above reference saturate >1 softly.
double NormalizeDataSize(double data_size_gb, double reference_gb);

// Context encoding for periodic jobs without visible data size: hour of day
// and day of week on the unit circle -> 2 features in [0,1].
std::array<double, 2> TimeOfDayContext(double hours_since_epoch);

}  // namespace sparktune
