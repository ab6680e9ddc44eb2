#pragma once

// In-memory spans the traced run records around each public library call
// the benchmark makes. A span holds a name, host start/end, its parent
// and the query it belongs to; self time is the span's duration minus the
// part its child spans cover. Spans are kept in memory and written out
// once, when the run ends. With recording off every call is one branch.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t query = -1;  // request index; -1 outside a query

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus its children's durations.
inline std::vector<int64_t> span_self_ns(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration_ns();
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration_ns();
  }
  return self;
}

/// Share of span `id`'s wall time its direct children cover (children
/// of one parent never overlap: the benchmark drives one thread).
inline double span_child_coverage(const std::vector<SpanRecord>& spans, int32_t id) {
  if (id < 0) return 0.0;
  int64_t covered = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent == id) covered += s.duration_ns();
  }
  const int64_t total = spans[static_cast<size_t>(id)].duration_ns();
  return total > 0 ? static_cast<double>(covered) / static_cast<double>(total) : 0.0;
}

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  bool on() const { return on_; }

  int32_t begin(const char* name, int64_t query = -1) {
    if (!on_) return -1;
    const auto id = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, open_, query});
    open_ = id;
    return id;
  }

  void end(int32_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = now_ns();
    open_ = spans_[static_cast<size_t>(id)].parent;
  }

  /// Self time of every span (see span_self_ns).
  std::vector<int64_t> self_ns() const { return span_self_ns(spans_); }

  /// Share of span `id`'s wall time its direct children cover.
  double child_coverage(int32_t id) const { return span_child_coverage(spans_, id); }

  /// Total and self seconds per span name.
  struct NameTotals {
    size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, NameTotals> totals_by_name() const {
    const auto self = self_ns();
    std::map<std::string, NameTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      NameTotals& t = out[spans_[i].name];
      ++t.count;
      t.total_s += static_cast<double>(spans_[i].duration_ns()) * 1e-9;
      t.self_s += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
  }

  /// JSON array, one object per span, times in microseconds from the
  /// first span's start.
  void write_json(std::ostream& os) const {
    const auto self = self_ns();
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":" << s.parent
         << ",\"query\":" << s.query << ",\"start_us\":" << (s.start_ns - t0) / 1000.0
         << ",\"end_us\":" << (s.end_ns - t0) / 1000.0
         << ",\"self_us\":" << self[i] / 1000.0 << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
  }

 private:
  bool on_;
  int32_t open_ = -1;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when the log is off.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, int64_t query = -1)
      : log_(log), id_(log.begin(name, query)) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int32_t id_;
};

}  // namespace e2e
