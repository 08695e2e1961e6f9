#include "bo/acquisition.h"

#include <cassert>
#include <cmath>

#include "common/normal.h"

namespace sparktune {

double ExpectedImprovement(double mean, double variance, double best) {
  double sigma = std::sqrt(std::max(variance, 0.0));
  if (sigma < 1e-12) {
    return best > mean ? best - mean : 0.0;
  }
  double gamma = (best - mean) / sigma;
  return sigma * (gamma * NormCdf(gamma) + NormPdf(gamma));
}

double ProbabilityBelow(double mean, double variance, double threshold) {
  double sigma = std::sqrt(std::max(variance, 0.0));
  if (sigma < 1e-12) return mean <= threshold ? 1.0 : 0.0;
  return NormCdf((threshold - mean) / sigma);
}

double ProbabilisticConstraint::SatisfactionProbability(
    const std::vector<double>& features) const {
  assert(surrogate != nullptr);
  Prediction p = surrogate->Predict(features);
  return ProbabilityBelow(p.mean, p.variance, threshold);
}

std::vector<double> ProbabilisticConstraint::SatisfactionProbabilityBatch(
    const std::vector<std::vector<double>>& xs) const {
  assert(surrogate != nullptr);
  std::vector<Prediction> preds = surrogate->PredictBatch(xs);
  std::vector<double> out(xs.size());
  for (size_t j = 0; j < xs.size(); ++j) {
    out[j] = ProbabilityBelow(preds[j].mean, preds[j].variance, threshold);
  }
  return out;
}

double ProbabilisticConstraint::UpperBound(const std::vector<double>& features,
                                           double gamma) const {
  assert(surrogate != nullptr);
  Prediction p = surrogate->Predict(features);
  return p.mean + gamma * std::sqrt(std::max(p.variance, 0.0));
}

std::vector<double> ProbabilisticConstraint::UpperBoundBatch(
    const std::vector<std::vector<double>>& xs, double gamma) const {
  assert(surrogate != nullptr);
  std::vector<Prediction> preds = surrogate->PredictBatch(xs);
  std::vector<double> out(xs.size());
  for (size_t j = 0; j < xs.size(); ++j) {
    out[j] =
        preds[j].mean + gamma * std::sqrt(std::max(preds[j].variance, 0.0));
  }
  return out;
}

bool ProbabilisticConstraint::InSafeRegion(const std::vector<double>& features,
                                           double gamma) const {
  return UpperBound(features, gamma) <= threshold;
}

EicAcquisition::EicAcquisition(const Surrogate* objective_surrogate,
                               double incumbent)
    : objective_(objective_surrogate), incumbent_(incumbent) {
  assert(objective_ != nullptr);
}

double EicAcquisition::RawEi(const std::vector<double>& features) const {
  Prediction p = objective_->Predict(features);
  return ExpectedImprovement(p.mean, p.variance, incumbent_);
}

double EicAcquisition::Eval(const std::vector<double>& features) const {
  for (const auto& fn : deterministic_) {
    if (!fn(features)) return 0.0;
  }
  double acq = RawEi(features);
  if (acq <= 0.0) return 0.0;
  for (const auto& c : constraints_) {
    acq *= c.SatisfactionProbability(features);
  }
  return acq;
}

std::vector<double> EicAcquisition::RawEiBatch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<Prediction> preds = objective_->PredictBatch(xs);
  std::vector<double> out(xs.size());
  for (size_t j = 0; j < xs.size(); ++j) {
    out[j] = ExpectedImprovement(preds[j].mean, preds[j].variance, incumbent_);
  }
  return out;
}

std::vector<double> EicAcquisition::EvalBatch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<double> out(xs.size(), 0.0);
  if (xs.empty()) return out;
  // Deterministic screen first (cheap, exact), mirroring Eval's
  // short-circuit order per candidate.
  std::vector<size_t> live;
  live.reserve(xs.size());
  for (size_t j = 0; j < xs.size(); ++j) {
    bool ok = true;
    for (const auto& fn : deterministic_) {
      if (!fn(xs[j])) {
        ok = false;
        break;
      }
    }
    if (ok) live.push_back(j);
  }
  if (live.empty()) return out;
  // Surrogates score xs itself while every candidate is still in play, and
  // a copied subset otherwise.
  auto subset = [&xs](const std::vector<size_t>& idx) {
    std::vector<std::vector<double>> sub;
    sub.reserve(idx.size());
    for (size_t j : idx) sub.push_back(xs[j]);
    return sub;
  };
  std::vector<double> ei =
      live.size() == xs.size() ? RawEiBatch(xs) : RawEiBatch(subset(live));
  // Constraint surrogates only score candidates with positive EI (Eval
  // never reaches the constraint product otherwise).
  std::vector<size_t> pos;
  pos.reserve(live.size());
  for (size_t t = 0; t < live.size(); ++t) {
    if (ei[t] > 0.0) {
      out[live[t]] = ei[t];
      pos.push_back(live[t]);
    }
  }
  if (pos.empty() || constraints_.empty()) return out;
  std::vector<std::vector<double>> pos_x;
  if (pos.size() != xs.size()) pos_x = subset(pos);
  const std::vector<std::vector<double>>& scored =
      pos.size() == xs.size() ? xs : pos_x;
  for (const auto& c : constraints_) {
    std::vector<double> probs = c.SatisfactionProbabilityBatch(scored);
    for (size_t t = 0; t < pos.size(); ++t) out[pos[t]] *= probs[t];
  }
  return out;
}

}  // namespace sparktune
