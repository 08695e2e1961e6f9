// Acquisition maximization over the candidate region S = safe region ∩
// sub-space (paper §4.2, Algorithm 2 line 8): scattered candidates plus
// hill-climbing local search, with a graceful "least-unsafe" fallback when
// the provably-safe set is empty (expands the safe region at its boundary).
#pragma once

#include <functional>

#include "bo/acquisition.h"
#include "bo/history.h"
#include "common/rng.h"
#include "space/subspace.h"

namespace sparktune {

struct AcqOptOptions {
  int num_candidates = 512;
  int num_local_starts = 6;
  int local_steps = 24;
  double local_sigma = 0.08;
  // Rejected hill-climb candidates (duplicate or unsafe) are re-drawn this
  // many times with annealed sigma before the step is forfeited, so a
  // cramped safe region still gets productive moves.
  int max_rejected_retries = 4;
  // Threads for candidate scoring and the multi-start hill climbs: 1 =
  // serial, 0 = global pool default width, k > 1 = up to k threads. The
  // result is identical at any setting: candidates are generated serially
  // from `rng`, each hill climb runs on its own forked stream, and
  // selection folds in a fixed order.
  int num_threads = 1;
};

struct AcqOptResult {
  Configuration config;
  double acq_value = 0.0;
  // EI of the chosen point without constraint weighting (stopping
  // criterion input).
  double raw_ei = 0.0;
  // True when no candidate was inside the safe region and the
  // least-unsafe fallback was used.
  bool safe_fallback_used = false;
};

// Safe-region hooks of one maximization (paper §4.2, Eq. 8). Each hook gets
// a candidate's configuration together with its surrogate encoding, which
// Maximize computes once per candidate and shares with acquisition scoring.
struct SafetyHooks {
  using Features = std::vector<double>;
  // Safe-region membership; null = no safety filtering.
  std::function<bool(const Configuration&, const Features&)> safe;
  // Optional batched screen of the scattered pool, used there instead of
  // `safe`: fills (*safe)[i] and (*unsafety)[i] for every candidate in one
  // pass (both pre-sized: all safe, unsafety 0). Unsafety is the degree of
  // safe-region violation (<= 0 means safe) and ranks the fallback
  // candidates; without this screen they rank equal and the first one is
  // the fallback. Its safe verdicts must agree bit-for-bit with `safe`,
  // which the hill climbs keep using.
  std::function<void(const std::vector<Configuration>&,
                     const std::vector<Features>&, std::vector<char>* safe,
                     std::vector<double>* unsafety)>
      screen_batch;
};

class AcquisitionOptimizer {
 public:
  using EncodeFn = std::function<std::vector<double>(const Configuration&)>;

  explicit AcquisitionOptimizer(AcqOptOptions options = {});

  // Encodes every non-duplicate candidate once, screens the scattered pool
  // (one batched pass when safety.screen_batch is given) and scores its
  // safe survivors with one EicAcquisition::EvalBatch pass — identical
  // selection to per-point scoring.
  AcqOptResult Maximize(const Subspace& subspace, const EncodeFn& encode,
                        const EicAcquisition& acq, const SafetyHooks& safety,
                        const RunHistory* history, Rng* rng) const;

 private:
  AcqOptOptions options_;
};

}  // namespace sparktune
