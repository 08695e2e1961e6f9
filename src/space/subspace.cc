#include "space/subspace.h"

#include <algorithm>
#include <cassert>

namespace sparktune {

Subspace::Subspace(const ConfigSpace* space, std::vector<int> free,
                   Configuration base)
    : space_(space), base_(std::move(base)) {
  assert(space_ != nullptr);
  assert(base_.size() == space_->size());
  is_free_.assign(space_->size(), false);
  for (int idx : free) {
    assert(idx >= 0 && idx < static_cast<int>(space_->size()));
    if (!is_free_[static_cast<size_t>(idx)]) {
      is_free_[static_cast<size_t>(idx)] = true;
      free_.push_back(idx);
    }
  }
}

Subspace Subspace::Full(const ConfigSpace* space) {
  std::vector<int> all(space->size());
  for (size_t i = 0; i < space->size(); ++i) all[i] = static_cast<int>(i);
  return Subspace(space, std::move(all), space->Default());
}

bool Subspace::IsFree(int param_index) const {
  assert(param_index >= 0 &&
         param_index < static_cast<int>(is_free_.size()));
  return is_free_[static_cast<size_t>(param_index)];
}

Configuration Subspace::Sample(Rng* rng) const {
  Configuration c = base_;
  for (int idx : free_) {
    const Parameter& p = space_->param(static_cast<size_t>(idx));
    c[static_cast<size_t>(idx)] = p.FromUnit(rng->Uniform());
  }
  return c;
}

Configuration Subspace::Neighbor(const Configuration& c, double sigma,
                                 Rng* rng) const {
  // Every free dim goes through the unit codec, perturbed or not; pinned
  // dims come from base.
  Configuration out = base_;
  bool changed = false;
  double p_mutate = free_.empty() ? 0.0 : 1.0 / static_cast<double>(free_.size());
  for (int idx : free_) {
    const Parameter& p = space_->param(static_cast<size_t>(idx));
    double u = p.ToUnit(c[static_cast<size_t>(idx)]);
    if (rng->Bernoulli(p_mutate)) {
      u = std::clamp(u + rng->Normal(0.0, sigma), 0.0, 1.0);
      changed = true;
    }
    out[static_cast<size_t>(idx)] = p.FromUnit(u);
  }
  if (!changed && !free_.empty()) {
    const size_t k = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(free_.size()) - 1));
    const size_t idx = static_cast<size_t>(free_[k]);
    const Parameter& p = space_->param(idx);
    out[idx] = p.FromUnit(
        std::clamp(p.ToUnit(c[idx]) + rng->Normal(0.0, sigma), 0.0, 1.0));
  }
  return out;
}

Configuration Subspace::Project(const Configuration& c) const {
  Configuration out = base_;
  for (int idx : free_) {
    out[static_cast<size_t>(idx)] = c[static_cast<size_t>(idx)];
  }
  return out;
}

}  // namespace sparktune
