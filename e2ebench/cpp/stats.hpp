#pragma once

// The benchmark's own arithmetic: percentiles with sample counts,
// failed-query accounting, per-node-round normalisation and the FNV-1a
// behaviour fingerprint. Header-only and free of library dependencies so
// selftest.cpp can pin every formula on hand-computed inputs.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace e2e {

/// One percentile of a timing distribution, with the sample count behind
/// it. `beyond` is how many samples lie past the chosen rank: a
/// percentile is only reported when at least ten do (see README.md).
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
  /// False when the rank lands among the failed queries, which count as
  /// slower than every completed one: the percentile is then unbounded.
  bool finite = true;
};

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among n >= 1
/// samples: ceil(p/100 * n).
inline size_t quantile_rank(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  return std::clamp<size_t>(static_cast<size_t>(std::ceil(exact - 1e-9)), 1, n);
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `completed` samples plus
/// `failed` samples that count as slower than every completed one. The
/// rank is ceil(p/100 * n) over all n = completed + failed samples.
inline Quantile quantile(std::vector<double> completed, size_t failed, double p) {
  Quantile q;
  q.samples = completed.size() + failed;
  if (q.samples == 0) {
    q.finite = false;
    return q;
  }
  const size_t rank = quantile_rank(q.samples, p);
  q.beyond = q.samples - rank;
  if (rank > completed.size()) {
    q.finite = false;
    q.value = std::numeric_limits<double>::infinity();
    return q;
  }
  std::nth_element(completed.begin(), completed.begin() + static_cast<long>(rank - 1),
                   completed.end());
  q.value = completed[rank - 1];
  return q;
}

/// Median of a non-empty sample (mean of the two middle values for even n).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-index minimum over runs of the same items: each item's fastest
/// of its identical repetitions. Runs longer than the shortest are cut to
/// its length.
inline std::vector<double> elementwise_min(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) return {};
  std::vector<double> out = runs.front();
  for (const auto& run : runs) {
    if (run.size() < out.size()) out.resize(run.size());
    for (size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], run[i]);
  }
  return out;
}

/// Query outcome tally. A query fails when it stops short of its probe
/// budget without a cache hit (walk lost, no neighbour, cancelled).
struct Outcomes {
  size_t attempted = 0;
  size_t failed = 0;

  static bool is_failure(size_t probes, size_t budget, bool cache_hit) {
    return !cache_hit && probes < budget;
  }
  void add(bool failed_query) {
    ++attempted;
    if (failed_query) ++failed;
  }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) / static_cast<double>(attempted);
  }
  double completed_share() const { return attempted == 0 ? 0.0 : 1.0 - failed_share(); }
};

/// Per-node-round normalisation while the alive count changes: a quantity
/// accrued over several rounds is divided by the node-rounds behind it,
/// the sum over rounds of the nodes alive in that round — not by the
/// final alive count times the number of rounds.
struct NodeRounds {
  double total = 0.0;
  double node_rounds = 0.0;

  void add_round(double amount, size_t alive) {
    total += amount;
    node_rounds += static_cast<double>(alive);
  }
  double per_node_round() const { return node_rounds > 0.0 ? total / node_rounds : 0.0; }
};

/// FNV-1a over 64-bit words, the scheme bench/micro_query_path.cpp uses
/// for its trace checksums.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t fnv_fold(uint64_t h, uint64_t v) { return (h ^ v) * kFnvPrime; }
inline uint64_t fnv_fold(uint64_t h, double v) {
  return fnv_fold(h, std::bit_cast<uint64_t>(v));
}

/// a / b, or 0 when b is 0 (a layer that did no work reports 0).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace e2e
