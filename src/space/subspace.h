// Configuration sub-space Λ_sub (paper §4.1): a subset of "free" parameters
// being tuned while the remaining parameters are pinned to a base
// configuration (the best configuration found so far, or the default).
#pragma once

#include <vector>

#include "common/rng.h"
#include "space/config_space.h"

namespace sparktune {

class Subspace {
 public:
  // `free` holds parameter indices into `space`; `base` supplies values for
  // pinned parameters. Duplicate indices are ignored.
  Subspace(const ConfigSpace* space, std::vector<int> free,
           Configuration base);

  // A subspace over all parameters of `space`.
  static Subspace Full(const ConfigSpace* space);

  const ConfigSpace& space() const { return *space_; }
  const std::vector<int>& free_indices() const { return free_; }
  size_t num_free() const { return free_.size(); }
  const Configuration& base() const { return base_; }
  bool IsFree(int param_index) const;

  // Uniform random sample: free dims random, pinned dims from base.
  Configuration Sample(Rng* rng) const;

  // Gaussian perturbation of `c` in unit space over free dims only
  // (stddev `sigma`), legalized; used by local acquisition search. With
  // probability 1/num_free each dimension is perturbed (at least one).
  Configuration Neighbor(const Configuration& c, double sigma, Rng* rng) const;

  // Overwrite pinned dims of `c` with base values (projection into the
  // subspace).
  Configuration Project(const Configuration& c) const;

 private:
  const ConfigSpace* space_;
  std::vector<int> free_;
  std::vector<bool> is_free_;
  Configuration base_;
};

}  // namespace sparktune
