#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int SpanRecorder::open(std::string_view name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const int id = add(name, now_ns(), 0, parent);
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder::close: spans must close in order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

int SpanRecorder::add(std::string_view name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent) {
  spans_.push_back(Span{std::string(name), start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool in_run = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void SpanRecorder::write_json(std::ostream& out) const {
  const std::vector<std::int64_t> self = self_ns();
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"self_ns\":" << self[i] << "}";
  }
  out << "\n]\n";
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    throw std::invalid_argument("percentile_sorted: empty sample");
  }
  const std::size_t n = sorted.size();
  const std::size_t rank = n - samples_beyond(n, p);  // 1-based
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  // Nearest rank ceil(p·n/100), computed in tenths of a percent so that
  // exact products (p = 99, n = 1000) do not round up.
  const auto tenths = static_cast<std::uint64_t>(std::llround(p * 10.0));
  const std::uint64_t rank = (tenths * n + 999) / 1000;
  return n - static_cast<std::size_t>(std::min<std::uint64_t>(rank, n));
}

std::optional<Tail> tail_percentile(std::vector<double> samples, double p) {
  const std::size_t beyond = samples_beyond(samples.size(), p);
  if (beyond < 10) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return Tail{p, percentile_sorted(samples, p), samples.size(), beyond};
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::mismatch(std::string what) {
  correct = false;
  mismatches.push_back(std::move(what));
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) mismatch(what);
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("result_json: non-finite metric value");
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::string result_json(const Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!valid_metric_name(m.name)) {
      throw std::invalid_argument("result_json: invalid metric name '" +
                                  m.name + "'");
    }
    out << (first ? "" : ", ") << "\"" << m.name
        << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
        << json_escape(m.unit) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string provenance_json(const Provenance& p) {
  std::ostringstream out;
  out << "{\"provenance\": {\"git_sha\": \"" << json_escape(p.git_sha)
      << "\", \"source_digest\": \"" << json_escape(p.source_digest)
      << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
      << "\", \"flags\": \"" << json_escape(PERFBENCH_FLAGS)
      << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"workload\": \"" << json_escape(p.workload)
      << "\", \"seed\": " << p.seed
      << ", \"trace\": " << (p.trace ? 1 : 0)
      << ", \"measured_seconds\": " << number(p.measured_seconds)
      << ", \"samples\": {";
  bool first = true;
  for (const auto& [key, value] : p.samples) {
    out << (first ? "" : ", ") << "\"" << json_escape(key)
        << "\": " << number(value);
    first = false;
  }
  out << "}}}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
