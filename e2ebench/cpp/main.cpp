// End-to-end benchmark driver: one workload, one seed, one run. Prints a
// human-readable report and, as its last line, one JSON object with the
// run's metrics; prints no metrics and exits non-zero when a correctness
// check fails. See ../README.md for the workloads and metrics.
//
//   ges_e2e --workload search_sync --seed 1 --seconds 10 --trace 0
//           [--spans-out spans.json]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: ges_e2e --workload search_sync|search_async_zipf|churn_maintenance"
               " --seed N --seconds S --trace 0|1 [--spans-out PATH]\n";
  return 2;
}

bool parse_u64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      if (!e2e::parse_workload(value, &config.workload)) return usage();
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &config.seed)) return usage();
    } else if (arg == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 60) return usage();
      config.seconds = static_cast<int>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      config.traced = value == "1";
    } else if (arg == "--spans-out") {
      config.spans_out = value;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  const e2e::Report report = e2e::run(config);
  for (const std::string& line : report.lines) std::cout << line << "\n";
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(report.checksum));
  std::cout << "checksum " << checksum << "\n";
  std::printf("measured_wall_s %.6f\n", report.measured_wall_s);
  std::fflush(stdout);
  if (!report.violations.empty()) {
    for (const std::string& v : report.violations) std::cerr << "FAIL: " << v << "\n";
    return 1;
  }
  std::cout << "{\"correct\": true, \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"checksum\": \"" << checksum
            << "\", \"measured_wall_s\": ";
  std::printf("%.9g", report.measured_wall_s);
  std::cout << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const e2e::Metric& m = report.metrics[i];
    if (!std::isfinite(m.value)) {
      std::cerr << "FAIL: metric " << m.name << " is not finite\n";
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << value
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
