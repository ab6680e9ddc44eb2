// Self-test of the benchmark's own arithmetic: percentiles with sample
// counts, failed-query accounting, per-node-round normalisation while the
// alive count changes, best-of-repetitions timing, span self time and
// coverage, and the FNV-1a fingerprint. run.py runs it after every build; it prints each failed
// check and exits non-zero on any.

#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::fmax(1.0, std::fabs(b)); }

std::vector<double> one_to(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // descending on purpose
  return v;
}

void percentiles() {
  using e2e::quantile;
  const auto q50 = quantile(one_to(100), 0, 50.0);
  expect(q50.value == 50.0 && q50.samples == 100 && q50.beyond == 50,
         "nearest-rank p50 of 1..100 is 50 with 50 beyond");
  const auto q99 = quantile(one_to(100), 0, 99.0);
  expect(q99.value == 99.0 && q99.beyond == 1, "p99 of 1..100 is 99 with 1 beyond");
  const auto q99_2000 = quantile(one_to(2000), 0, 99.0);
  expect(q99_2000.value == 1980.0 && q99_2000.beyond == 20,
         "p99 of 2000 samples has 20 beyond it");
  const auto q50_odd = quantile(one_to(5), 0, 50.0);
  expect(q50_odd.value == 3.0 && q50_odd.beyond == 2, "p50 of 1..5 is 3");
  const auto q100 = quantile(one_to(7), 0, 100.0);
  expect(q100.value == 7.0 && q100.beyond == 0, "p100 is the maximum");
  expect(!quantile({}, 0, 50.0).finite, "a percentile of no samples is undefined");
}

void failed_queries_in_percentiles() {
  using e2e::quantile;
  // 98 completed queries plus 2 failed ones, which rank above all of them.
  const auto q98 = quantile(one_to(98), 2, 98.0);
  expect(q98.finite && q98.value == 98.0 && q98.samples == 100 && q98.beyond == 2,
         "p98 with two failed queries is the slowest completed one");
  const auto q99 = quantile(one_to(98), 2, 99.0);
  expect(!q99.finite && std::isinf(q99.value) && q99.beyond == 1,
         "p99 with two failed of 100 lands among the failed queries");
  const auto q50 = quantile(one_to(98), 2, 50.0);
  expect(q50.value == 50.0, "failed queries shift the median rank over all attempts");
  expect(!quantile({}, 3, 50.0).finite, "all-failed percentiles are undefined");
}

void outcome_accounting() {
  using e2e::Outcomes;
  expect(Outcomes::is_failure(12, 40, false), "stopping short of the budget fails");
  expect(!Outcomes::is_failure(40, 40, false), "reaching the budget completes");
  expect(!Outcomes::is_failure(0, 40, true), "a cache hit completes with no probes");
  Outcomes o;
  o.add(true);
  o.add(false);
  o.add(false);
  o.add(false);
  expect(o.attempted == 4 && o.failed == 1, "outcome counts");
  expect(near(o.failed_share(), 0.25) && near(o.completed_share(), 0.75),
         "failed share is failed over attempted");
  expect(Outcomes{}.failed_share() == 0.0, "no attempts, no failed share");
}

void node_round_normalisation() {
  // The alive count falls from 400 to 200 over three rounds.
  e2e::NodeRounds n;
  n.add_round(4000.0, 400);
  n.add_round(3000.0, 300);
  n.add_round(1000.0, 200);
  expect(near(n.node_rounds, 900.0), "node-rounds sum the per-round alive counts");
  expect(near(n.per_node_round(), 8000.0 / 900.0),
         "per node-round divides by node-rounds, not final alive x rounds");
  expect(!near(n.per_node_round(), 8000.0 / (200.0 * 3.0)),
         "the final alive count would overstate the per-node cost");
  expect(e2e::NodeRounds{}.per_node_round() == 0.0, "no rounds, zero");
  expect(e2e::ratio(1.0, 0.0) == 0.0 && near(e2e::ratio(3.0, 4.0), 0.75), "ratio");
}

void medians() {
  expect(e2e::median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(e2e::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
}

void best_of_runs() {
  const std::vector<std::vector<double>> runs = {{3.0, 1.0, 5.0}, {2.0, 4.0, 6.0}, {9.0, 2.0, 1.0}};
  expect(e2e::elementwise_min(runs) == std::vector<double>({2.0, 1.0, 1.0}),
         "each item's fastest repetition");
  expect(e2e::elementwise_min({{1.0, 2.0}, {3.0}}) == std::vector<double>({1.0}),
         "runs are cut to the shortest");
  expect(e2e::elementwise_min({}).empty(), "no runs, no items");
}

void spans() {
  using e2e::SpanRecord;
  // phase [0, 100) with children [0, 40) and [50, 95); the second child
  // has its own child [60, 70).
  const std::vector<SpanRecord> s = {
      {"phase", 0, 100, -1, -1},
      {"a", 0, 40, 0, 1},
      {"b", 50, 95, 0, 2},
      {"b.inner", 60, 70, 2, 2},
  };
  const auto self = e2e::span_self_ns(s);
  expect(self[0] == 15 && self[1] == 40 && self[2] == 35 && self[3] == 10,
         "self time is duration minus direct children");
  expect(near(e2e::span_child_coverage(s, 0), 0.85), "children cover 85 of 100");
  expect(near(e2e::span_child_coverage(s, 2), 10.0 / 45.0), "nested coverage");
  expect(e2e::span_child_coverage(s, 3) == 0.0, "a leaf has no coverage");
}

void fingerprint() {
  const uint64_t h = e2e::fnv_fold(e2e::kFnvOffset, uint64_t{0});
  expect(h == 0x44bd2bd473ccf799ULL, "FNV-1a fold of 0");
  expect(e2e::fnv_fold(h, uint64_t{1}) == 0x9a691200c548b748ULL, "FNV-1a fold of 0, 1");
  expect(e2e::fnv_fold(e2e::fnv_fold(e2e::kFnvOffset, uint64_t{1}), uint64_t{0}) !=
             e2e::fnv_fold(h, uint64_t{1}),
         "the fingerprint depends on order");
  expect(e2e::fnv_fold(h, 0.5) != e2e::fnv_fold(h, -0.5), "score bits enter the fold");
}

}  // namespace

int main() {
  percentiles();
  failed_queries_in_percentiles();
  outcome_accounting();
  node_round_normalisation();
  medians();
  best_of_runs();
  spans();
  fingerprint();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
