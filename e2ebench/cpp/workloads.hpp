#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class Workload { kSearchSync, kSearchAsyncZipf, kChurnMaintenance };

/// Parses a workload name; false when unknown.
bool parse_workload(const std::string& name, Workload* out);

struct RunConfig {
  Workload workload = Workload::kSearchSync;
  uint64_t seed = 1;
  /// Sizes the measured phase (see README.md, "Run length").
  int seconds = 10;
  /// Traced run: library telemetry, flight recorder and strict
  /// result-cache mode on, benchmark spans recorded, per-layer metrics
  /// reported. Untraced: all of these off, end-to-end metrics reported.
  bool traced = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;  // end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> lines;       // human-readable report
  std::vector<std::string> violations;  // correctness-gate failures
  uint64_t checksum = 0;                // behaviour fingerprint
  double measured_wall_s = 0.0;         // wall time of the measured phase
  size_t attempted = 0;                 // library operations issued
  size_t failed = 0;                    // operations the library did not complete
};

Report run(const RunConfig& config);

}  // namespace e2e
