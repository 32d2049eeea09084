// Measurement harness shared by every perfbench workload: the span
// recorder and its self-time rule, the tail-percentile rule, metric-name
// validation, the result line, and run provenance.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call at a layer boundary.  `parent` indexes the span that was
/// open when this one started (-1 for a root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span log for one thread.  Spans nest by open/close order; the
/// log is written out once, when the run ends.
class SpanRecorder {
 public:
  int open(std::string_view name);
  void close(int id);
  /// Appends an already-measured span (used by tests and by callers that
  /// time a region themselves).
  int add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
          int parent);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its direct children.  Overlapping children are merged
  /// first, so covered time is subtracted once; a grandchild lies inside
  /// its parent and is therefore already covered.
  std::vector<std::int64_t> self_ns() const;

  /// JSON array of {name, start_ns, end_ns, parent, self_ns}.
  void write_json(std::ostream& out) const;

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string_view name)
        : recorder_(recorder),
          id_(recorder != nullptr ? recorder->open(name) : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int id_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least p% of the samples at or below it.  Requires a non-empty input.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// A tail percentile together with the evidence behind it.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked strictly above the reported one
};

/// The p-th percentile, reported only when at least 10 samples rank beyond
/// it (p99 therefore needs >= 1000 samples); nullopt otherwise.  A workload
/// fixes its p, so the statistic does not change with the sample count,
/// which grows as the code gets faster.
std::optional<Tail> tail_percentile(std::vector<double> samples, double p);

/// Samples ranked beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons for correct == false.
  std::vector<std::string> mismatches;

  void add(std::string name, double value, std::string unit);
  void mismatch(std::string what);
  /// Records a mismatch when `ok` is false.
  void check(bool ok, const std::string& what);
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Throws std::invalid_argument on an invalid name or a non-finite value.
std::string result_json(const Result& result);

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

struct Provenance {
  std::string git_sha;
  std::string source_digest;
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  double measured_seconds = 0.0;
  std::map<std::string, double> samples;  // sample counts and settings
};

/// {"provenance": {...}} including compiler, flags, build type and nproc.
std::string provenance_json(const Provenance& p);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
