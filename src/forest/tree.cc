#include "forest/tree.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <type_traits>

namespace sparktune {

namespace {

template <typename Index>
SortedFeatures::Columns<Index> SortColumns(
    const std::vector<std::vector<double>>& x, size_t features) {
  const size_t rows = x.size();
  SortedFeatures::Columns<Index> cols;
  cols.order.resize(rows * features);
  cols.rank.resize(rows * features);
  std::vector<double> column(rows);
  for (size_t f = 0; f < features; ++f) {
    for (size_t r = 0; r < rows; ++r) column[r] = x[r][f];
    Index* order = cols.order.data() + f * rows;
    std::iota(order, order + rows, Index{0});
    std::sort(order, order + rows, [&](Index a, Index b) {
      return column[a] < column[b] || (!(column[b] < column[a]) && a < b);
    });
    // A new rank wherever the split scan could place a threshold.
    Index* rank = cols.rank.data() + f * rows;
    Index current = 0;
    rank[order[0]] = current;
    for (size_t k = 1; k < rows; ++k) {
      if (column[order[k]] > column[order[k - 1]]) ++current;
      rank[order[k]] = current;
    }
  }
  return cols;
}

}  // namespace

Result<SortedFeatures> SortedFeatures::Build(
    const std::vector<std::vector<double>>& x) {
  if (x.empty()) return Status::InvalidArgument("tree needs at least one row");
  if (x.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("tree rows exceed 32-bit row ids");
  }
  SortedFeatures s;
  s.x_ = &x;
  s.rows_ = x.size();
  s.features_ = x[0].size();
  for (const auto& row : x) {
    if (row.size() != s.features_) {
      return Status::InvalidArgument("tree rows differ in width");
    }
  }
  if (s.rows_ <= std::numeric_limits<uint16_t>::max()) {
    s.columns_ = SortColumns<uint16_t>(x, s.features_);
  } else {
    s.columns_ = SortColumns<uint32_t>(x, s.features_);
  }
  return s;
}

// One tree's working state. cols_ holds, per feature, the sample's rows in
// (value, row) order (feature-major, m_ entries each, a row repeated once
// per occurrence in the sample); samples_ holds the sample in its given
// order, which fixes each node's sum order. A node owns the range
// [begin, end) of every one of these arrays, and splitting a node stably
// partitions its range in each, so both children's ranges stay sorted.
// Index is the presort's row-id type.
template <typename Index>
class RegressionTree::Builder {
 public:
  Builder(RegressionTree* tree, const SortedFeatures& sorted,
          const SortedFeatures::Columns<Index>& columns,
          const std::vector<double>& y, const std::vector<int>& sample,
          Rng* rng)
      : tree_(tree),
        options_(tree->options_),
        x_(sorted.x()),
        y_(y),
        rng_(rng),
        rows_(sorted.num_rows()),
        nf_(sorted.num_features()),
        rank_(columns.rank),
        go_left_(rows_, 0) {
    if (sample.empty()) {
      m_ = rows_;
      samples_.resize(rows_);
      std::iota(samples_.begin(), samples_.end(), Index{0});
      cols_ = columns.order;
    } else {
      m_ = sample.size();
      std::vector<uint32_t> count(rows_, 0);
      samples_.reserve(m_);
      for (int s : sample) {
        ++count[static_cast<size_t>(s)];
        samples_.push_back(static_cast<Index>(s));
      }
      // Each row is written twice unconditionally and the cursor advances
      // by its count: sample counts are mostly 0, 1 or 2 and vary row to
      // row, so a count-driven loop mispredicts on most rows. A write past
      // the row's copies is overwritten by the next row, or lands in the
      // next feature's segment before that is filled, or in the slack.
      cols_.resize(nf_ * m_ + 2);
      for (size_t f = 0; f < nf_; ++f) {
        const Index* order = columns.order.data() + f * rows_;
        Index* out = cols_.data() + f * m_;
        for (size_t k = 0; k < rows_; ++k) {
          const Index r = order[k];
          const uint32_t c = count[r];
          out[0] = r;
          out[1] = r;
          if (c > 2) std::fill_n(out + 2, c - 2, r);
          out += c;
        }
      }
    }
    scratch_.resize(m_);
  }

  size_t sample_size() const { return m_; }

  // Grows the subtree over [begin, end) in preorder (node, left subtree,
  // right subtree), which fixes the node numbering and the order in which
  // feature subsets are drawn from the Rng.
  int Build(size_t begin, size_t end, int depth) {
    std::vector<Node>& nodes = tree_->nodes_;
    int node_id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    const size_t n = end - begin;
    double sum = 0.0, sq = 0.0;
    for (size_t i = begin; i < end; ++i) {
      double yi = y_[samples_[i]];
      sum += yi;
      sq += yi * yi;
    }
    double mean = sum / static_cast<double>(n);
    double node_sse = sq - sum * mean;
    nodes[static_cast<size_t>(node_id)].value = mean;
    nodes[static_cast<size_t>(node_id)].num_samples = static_cast<int>(n);
    if (!Splittable(n, depth)) return node_id;

    std::vector<int> features;
    int nf = static_cast<int>(nf_);
    if (options_.max_features > 0 && options_.max_features < nf) {
      features = rng_->SampleWithoutReplacement(nf, options_.max_features);
    } else {
      features.resize(nf_);
      std::iota(features.begin(), features.end(), 0);
    }
    Split best;
    for (int f : features) {
      ScanFeature(static_cast<size_t>(f), begin, end, &best);
    }
    if (!best.found) return node_id;

    const size_t bf = static_cast<size_t>(best.feature);
    size_t nl = 0;
    for (size_t i = begin; i < end; ++i) {
      const Index r = samples_[i];
      const bool left = x_[r][bf] <= best.threshold;
      go_left_[r] = left;
      nl += left;
    }
    if (nl == 0 || nl == n) return node_id;
    Partition(samples_.data() + begin, n);
    // Children that will not split never read their feature ranges.
    if (Splittable(nl, depth + 1) || Splittable(n - nl, depth + 1)) {
      for (size_t f = 0; f < nf_; ++f) {
        Partition(cols_.data() + f * m_ + begin, n);
      }
    }

    int left = Build(begin, begin + nl, depth + 1);
    int right = Build(begin + nl, end, depth + 1);
    Node& node = nodes[static_cast<size_t>(node_id)];
    node.is_leaf = false;
    node.feature = best.feature;
    node.threshold = best.threshold;
    node.left = left;
    node.right = right;
    node.impurity_decrease = std::max(0.0, node_sse - best.score);
    return node_id;
  }

 private:
  struct Split {
    bool found = false;
    int feature = -1;
    double threshold = 0.0;
    double score = std::numeric_limits<double>::infinity();  // weighted SSE
  };

  bool Splittable(size_t n, int depth) const {
    return depth < options_.max_depth &&
           static_cast<int>(n) >= options_.min_samples_split;
  }

  // Best threshold of feature f over the node's range: one pass for the
  // totals and one prefix-sum pass, both in (value, row) order; a
  // threshold sits between consecutive rows of different rank.
  void ScanFeature(size_t f, size_t begin, size_t end, Split* best) const {
    const Index* seg = cols_.data() + f * m_ + begin;
    const Index* rank = rank_.data() + f * rows_;
    const size_t n = end - begin;
    const size_t min_leaf = static_cast<size_t>(options_.min_samples_leaf);
    double total_sum = 0.0, total_sq = 0.0;
    for (size_t k = 0; k < n; ++k) {
      double yi = y_[seg[k]];
      total_sum += yi;
      total_sq += yi * yi;
    }
    double left_sum = 0.0, left_sq = 0.0;
    for (size_t k = 0; k + 1 < n; ++k) {
      const Index r = seg[k], next = seg[k + 1];
      double yi = y_[r];
      left_sum += yi;
      left_sq += yi * yi;
      if (rank[next] == rank[r]) continue;  // same value, no valid threshold
      size_t nl = k + 1, nr = n - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      double right_sum = total_sum - left_sum;
      double right_sq = total_sq - left_sq;
      double sse_left = left_sq - left_sum * left_sum / static_cast<double>(nl);
      double sse_right =
          right_sq - right_sum * right_sum / static_cast<double>(nr);
      double score = sse_left + sse_right;
      if (score < best->score - 1e-15) {
        best->found = true;
        best->feature = static_cast<int>(f);
        best->threshold = 0.5 * (x_[r][f] + x_[next][f]);
        best->score = score;
      }
    }
  }

  // Stable partition of seg[0, n) by go_left_: left rows first.
  void Partition(Index* seg, size_t n) {
    // Branch-free: every row is stored on both sides and only the side it
    // belongs to advances (the side flag is unpredictable row to row). The
    // left write never passes the read position.
    Index* right = scratch_.data();
    size_t nl = 0, nr = 0;
    for (size_t k = 0; k < n; ++k) {
      const Index r = seg[k];
      const size_t left = go_left_[r];
      seg[nl] = r;
      right[nr] = r;
      nl += left;
      nr += 1 - left;
    }
    std::copy(right, right + nr, seg + nl);
  }

  RegressionTree* tree_;
  const TreeOptions& options_;
  const std::vector<std::vector<double>>& x_;
  const std::vector<double>& y_;
  Rng* rng_;
  const size_t rows_;
  const size_t nf_;
  const std::vector<Index>& rank_;
  size_t m_ = 0;
  std::vector<Index> cols_;
  std::vector<Index> samples_;
  std::vector<Index> scratch_;
  std::vector<uint8_t> go_left_;
};

RegressionTree::RegressionTree(TreeOptions options) : options_(options) {}

Status RegressionTree::Fit(const std::vector<std::vector<double>>& x,
                           const std::vector<double>& y,
                           const std::vector<int>& sample_indices, Rng* rng) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("tree needs matching non-empty X and y");
  }
  SPARKTUNE_ASSIGN_OR_RETURN(sorted, SortedFeatures::Build(x));
  return Fit(sorted, y, sample_indices, rng);
}

Status RegressionTree::Fit(const SortedFeatures& sorted,
                           const std::vector<double>& y,
                           const std::vector<int>& sample_indices, Rng* rng) {
  if (y.size() != sorted.num_rows()) {
    return Status::InvalidArgument("tree needs matching non-empty X and y");
  }
  if (options_.max_features > 0 && rng == nullptr) {
    return Status::InvalidArgument("feature subsampling requires an Rng");
  }
  for (int s : sample_indices) {
    if (s < 0 || static_cast<size_t>(s) >= sorted.num_rows()) {
      return Status::InvalidArgument("tree sample index out of range");
    }
  }
  num_features_ = sorted.num_features();
  nodes_.clear();
  std::visit(
      [&](const auto& columns) {
        using Index =
            typename std::decay_t<decltype(columns.order)>::value_type;
        Builder<Index> builder(this, sorted, columns, y, sample_indices, rng);
        builder.Build(0, builder.sample_size(), 0);
      },
      sorted.columns());
  return Status::OK();
}

std::vector<double> RegressionTree::FeatureImportance() const {
  std::vector<double> imp(num_features_, 0.0);
  double total = 0.0;
  for (const Node& n : nodes_) {
    if (n.is_leaf) continue;
    imp[static_cast<size_t>(n.feature)] += n.impurity_decrease;
    total += n.impurity_decrease;
  }
  if (total > 0.0) {
    for (auto& v : imp) v /= total;
  }
  return imp;
}

double RegressionTree::Predict(const std::vector<double>& x) const {
  assert(!nodes_.empty());
  int cur = 0;
  while (!nodes_[static_cast<size_t>(cur)].is_leaf) {
    const Node& n = nodes_[static_cast<size_t>(cur)];
    cur = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(cur)].value;
}

}  // namespace sparktune
