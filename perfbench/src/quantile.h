#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

// Exact-rank quantiles over raw samples. The value reported for a
// quantile q is always one of the samples: the nearest-rank order
// statistic x[ceil(q * n)] (1-based) of the sorted values, so it can
// never fall outside [min, max] the way a bucket interpolation can.
namespace perfbench {

/// Nearest-rank quantile of `sorted` (ascending), q in [0, 1].
inline double rank_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// A sample summary: median plus the highest standard percentile that
/// still has at least `kTailMargin` samples above its rank. `tail_pct`
/// is 0 when fewer than 40 samples exist (there is no tail to report).
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};

inline constexpr std::size_t kTailMargin = 10;
inline constexpr std::size_t kMinTailSamples = 40;

inline Summary summarize(std::vector<double> values) {
  Summary s;
  std::sort(values.begin(), values.end());
  s.count = values.size();
  if (values.empty()) return s;
  s.p50 = rank_quantile(values, 0.5);
  if (values.size() < kMinTailSamples) return s;
  const auto n = static_cast<double>(values.size());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    if (values.size() - rank >= kTailMargin) {
      s.tail = rank_quantile(values, pct / 100.0);
      s.tail_pct = pct;
      return s;
    }
  }
  return s;
}

}  // namespace perfbench
