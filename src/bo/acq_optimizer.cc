#include "bo/acq_optimizer.h"

#include <algorithm>
#include <cstddef>

#include "common/thread_pool.h"

namespace sparktune {

AcquisitionOptimizer::AcquisitionOptimizer(AcqOptOptions options)
    : options_(options) {}

AcqOptResult AcquisitionOptimizer::Maximize(const Subspace& subspace,
                                            const EncodeFn& encode,
                                            const EicAcquisition& acq,
                                            const SafetyHooks& safety,
                                            const RunHistory* history,
                                            Rng* rng) const {
  struct Scored {
    Configuration config;
    double value = 0.0;
  };

  // ---- Candidate generation (serial: preserves the rng draw order) ----
  std::vector<Configuration> cands;
  cands.reserve(static_cast<size_t>(options_.num_candidates) + 8);
  // Scattered candidates.
  for (int i = 0; i < options_.num_candidates; ++i) {
    cands.push_back(subspace.Sample(rng));
  }
  // Exploit neighborhood of the incumbent and recent configurations. At
  // least one incumbent neighbor even for small pools (num_candidates < 8
  // used to yield zero and silently disable local exploitation).
  if (history != nullptr && !history->empty()) {
    int best = history->BestFeasibleIndex();
    if (best >= 0) {
      Configuration best_config = history->config(static_cast<size_t>(best));
      int local = std::max(1, options_.num_candidates / 8);
      for (int i = 0; i < local; ++i) {
        cands.push_back(subspace.Neighbor(subspace.Project(best_config),
                                          options_.local_sigma, rng));
      }
    }
    size_t recent = std::min<size_t>(3, history->size());
    for (size_t k = history->size() - recent; k < history->size(); ++k) {
      cands.push_back(subspace.Neighbor(subspace.Project(history->config(k)),
                                        options_.local_sigma, rng));
    }
  }

  // ---- Drop already-evaluated candidates, keeping candidate order ----
  if (history != nullptr) {
    std::vector<char> dup(cands.size());
    ParallelFor(options_.num_threads, cands.size(),
                [&](size_t i) { dup[i] = history->Contains(cands[i]); });
    size_t kept = 0;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (dup[i]) continue;
      if (kept != i) cands[kept] = std::move(cands[i]);
      ++kept;
    }
    cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(kept),
                cands.end());
  }

  // ---- Candidate evaluation: one encoding per candidate, shared by the
  // safety screen and the acquisition; one surrogate pass per stage ----
  const size_t n = cands.size();
  std::vector<std::vector<double>> feats(n);
  ParallelFor(options_.num_threads, n,
              [&](size_t i) { feats[i] = encode(cands[i]); });
  std::vector<char> is_safe(n, 1);
  std::vector<double> unsafety(n, 0.0);
  if (safety.screen_batch) {
    if (n > 0) safety.screen_batch(cands, feats, &is_safe, &unsafety);
  } else if (safety.safe) {
    ParallelFor(options_.num_threads, n, [&](size_t i) {
      is_safe[i] = safety.safe(cands[i], feats[i]);
    });
  }
  // Acquisition for the safe survivors: the whole pool in one batched
  // surrogate pass; their encodings move into it.
  std::vector<size_t> scored;
  std::vector<std::vector<double>> scored_feats;
  scored.reserve(n);
  scored_feats.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!is_safe[i]) continue;
    scored.push_back(i);
    scored_feats.push_back(std::move(feats[i]));
  }
  std::vector<double> acq_vals = acq.EvalBatch(scored_feats);

  // ---- Serial fold in candidate order (same tie-breaking as serial) ----
  // The fallback is the first candidate of least unsafety.
  size_t least_unsafe = 0;
  for (size_t i = 1; i < n; ++i) {
    if (unsafety[i] < unsafety[least_unsafe]) least_unsafe = i;
  }
  std::vector<Scored> pool;
  pool.reserve(scored.size());
  for (size_t t = 0; t < scored.size(); ++t) {
    pool.push_back({std::move(cands[scored[t]]), acq_vals[t]});
  }

  AcqOptResult result;
  if (pool.empty()) {
    // Safe set empty: suggest the configuration whose worst-case constraint
    // violation is smallest — the point most likely to extend the safe
    // region (SafeOpt-style expansion).
    result.safe_fallback_used = true;
    result.acq_value = 0.0;
    if (n > 0) {
      result.config = std::move(cands[least_unsafe]);
      result.raw_ei = acq.RawEi(feats[least_unsafe]);
    } else {
      result.config = subspace.Sample(rng);
      result.raw_ei = acq.RawEi(encode(result.config));
    }
    return result;
  }

  std::sort(pool.begin(), pool.end(),
            [](const Scored& a, const Scored& b) { return a.value > b.value; });

  // ---- Local hill-climbing from the top starts (parallel) ----
  // Each start owns a forked RNG stream, so climbs are independent of each
  // other and of the thread count.
  int starts = std::min<int>(options_.num_local_starts,
                             static_cast<int>(pool.size()));
  std::vector<Rng> climb_rngs = ForkRngs(rng, static_cast<size_t>(starts));
  std::vector<Scored> climbed(static_cast<size_t>(starts));
  ParallelFor(options_.num_threads, static_cast<size_t>(starts), [&](size_t s) {
    Rng* crng = &climb_rngs[s];
    Configuration cur = pool[s].config;
    double cur_value = pool[s].value;
    double sigma = options_.local_sigma;
    // Encoding of the latest draw, shared by the safety check and Eval.
    std::vector<double> f;
    auto rejected = [&](const Configuration& c) {
      if (history != nullptr && history->Contains(c)) return true;
      f = encode(c);
      return safety.safe && !safety.safe(c, f);
    };
    for (int step = 0; step < options_.local_steps; ++step) {
      Configuration cand = subspace.Neighbor(cur, sigma, crng);
      // A duplicate or unsafe candidate is not a wasted step: anneal sigma
      // and redraw closer to `cur`, where membership is likeliest.
      bool rej = rejected(cand);
      for (int retry = 0; rej && retry < options_.max_rejected_retries;
           ++retry) {
        sigma *= 0.9;
        cand = subspace.Neighbor(cur, sigma, crng);
        rej = rejected(cand);
      }
      if (rej) {
        sigma *= 0.9;
        continue;
      }
      double v = acq.Eval(f);
      if (v > cur_value) {
        cur = std::move(cand);
        cur_value = v;
      } else {
        sigma *= 0.9;  // anneal toward fine-grained moves
      }
    }
    climbed[s] = {std::move(cur), cur_value};
  });

  Configuration best_config = pool[0].config;
  double best_value = pool[0].value;
  for (const Scored& c : climbed) {
    if (c.value > best_value) {
      best_value = c.value;
      best_config = c.config;
    }
  }

  result.config = best_config;
  result.acq_value = best_value;
  result.raw_ei = acq.RawEi(encode(best_config));
  return result;
}

}  // namespace sparktune
