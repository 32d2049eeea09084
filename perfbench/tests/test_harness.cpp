// Self-tests of the benchmark's own machinery: span self times, the tail
// percentile rule, metric-name validation, the allocation hook, exact
// allocation repeatability, and that a perturbed expected output is caught.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

using perfbench::SpanRecorder;

void test_self_time_subtracts_children_once() {
  SpanRecorder r;
  const int root = r.add("root", 0, 100, -1);
  const int a = r.add("a", 10, 30, root);
  r.add("b", 20, 40, root);      // overlaps a: [10, 40) is covered once
  r.add("a.inner", 12, 15, a);   // inside a: not subtracted from root again
  r.add("late", 90, 120, root);  // clipped to the parent's end
  const std::vector<std::int64_t> self = r.self_ns();
  expect(self[0] == 100 - 30 - 10, "root self = duration - merged children");
  expect(self[1] == 17, "a self excludes its child");
  expect(self[2] == 20, "b has no children");
  expect(self[3] == 3, "leaf self = duration");
}

void test_open_close_nesting() {
  SpanRecorder r;
  {
    const SpanRecorder::Scope outer(&r, "outer");
    { const SpanRecorder::Scope inner(&r, "inner"); }
    { const SpanRecorder::Scope inner(&r, "inner"); }
  }
  const auto& s = r.spans();
  expect(s.size() == 3 && s[0].parent == -1 && s[1].parent == 0 &&
             s[2].parent == 0,
         "scopes nest by open order");
  const std::vector<std::int64_t> self = r.self_ns();
  expect(self[0] >= 0 && self[0] <= s[0].end_ns - s[0].start_ns,
         "outer self time within its duration");
  bool threw = false;
  const int x = r.open("x");
  r.open("y");
  try {
    r.close(x);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing out of order throws");
}

// Percentile picks and medians of integer ramps are exact values.
bool exactly(double a, double b) { return a == b; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  expect(samples_beyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  expect(samples_beyond(999, 99.0) == 9, "999 samples: 9 beyond p99");
  auto t = tail_percentile(ramp(1000), 99.0);
  expect(t && exactly(t->percentile, 99.0) && exactly(t->value, 990.0) && t->beyond == 10,
         "p99 reported at 1000 samples");
  expect(!tail_percentile(ramp(999), 99.0),
         "no p99 at 999 samples, and no fallback to another percentile");
  t = tail_percentile(ramp(5000), 99.0);
  expect(t && exactly(t->percentile, 99.0) && exactly(t->value, 4950.0) && t->beyond == 50,
         "p99 at 5000 samples");
  t = tail_percentile(ramp(100), 90.0);
  expect(t && exactly(t->percentile, 90.0) && exactly(t->value, 90.0) && t->beyond == 10,
         "p90 at 100 samples");
  expect(!tail_percentile(ramp(99), 90.0), "no p90 at 99 samples");
  for (const double p : {90.0, 99.0}) {
    for (std::size_t n = 1; n <= 3000; ++n) {
      const auto tail = tail_percentile(ramp(n), p);
      if (!tail) {
        if (samples_beyond(n, p) >= 10) {
          expect(false, "a tail with 10 samples beyond is reported, n = " +
                            std::to_string(n));
          break;
        }
        continue;
      }
      std::size_t above = 0;
      for (std::size_t i = 1; i <= n; ++i) above += i > tail->value ? 1 : 0;
      if (above < 10 || above != tail->beyond ||
          !exactly(tail->percentile, p)) {
        expect(false, "at least 10 samples beyond the fixed tail, n = " +
                          std::to_string(n));
        break;
      }
    }
  }
  expect(exactly(perfbench::median({3.0, 1.0, 2.0}), 2.0) &&
             exactly(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5),
         "median");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  for (const char* ok : {"a", "setup_s", "fleet.step_ns", "9x", "a-b_c.d"}) {
    expect(valid_metric_name(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", ".a", "_a", "-a", "a b", "a/b", "a\"b",
                          "caf\xc3\xa9"}) {
    expect(!valid_metric_name(bad), std::string("invalid name ") + bad);
  }
  expect(valid_metric_name(std::string(64, 'a')) &&
             !valid_metric_name(std::string(65, 'a')),
         "64-character limit");
  perfbench::Result r;
  r.attempted = 3;
  r.add("x.y", 1.5, "ms");
  expect(perfbench::result_json(r) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"x.y\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
         "result line format");
  r.add("bad name", 1.0, "ms");
  bool threw = false;
  try {
    perfbench::result_json(r);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "an invalid name is refused");
  perfbench::Result nan;
  nan.add("x", std::nan(""), "ms");
  threw = false;
  try {
    perfbench::result_json(nan);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "a non-finite value is refused");
}

std::atomic<int*> g_sink{nullptr};

void test_alloc_hook() {
  {
    // Read the counter before expect() builds its message string.
    const perfbench::alloc::Counter c;
    g_sink.store(new int(7));
    const std::uint64_t after_new = c.value();
    delete g_sink.exchange(nullptr);
    const std::uint64_t after_delete = c.value();
    expect(after_new == 1, "one new-expression counts exactly once");
    expect(after_delete == 1, "delete counts nothing");
  }
  // Two threads allocating at once: every allocation lands exactly once.
  constexpr int kPerThread = 20000;
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  const auto body = [&] {
    while (!go.load()) {
    }
    for (int i = 0; i < kPerThread; ++i) {
      int* p = new int(i);
      g_sink.store(p);
      delete p;
    }
    done.fetch_add(1);
  };
  std::thread t1(body);
  std::thread t2(body);
  std::uint64_t counted = 0;
  {
    const perfbench::alloc::Counter c;
    go.store(true);
    while (done.load() < 2) {
    }
    counted = c.value();
  }
  t1.join();
  t2.join();
  expect(counted == 2u * kPerThread,
         "concurrent allocations: counted " + std::to_string(counted));
}

void test_allocs_repeat_and_mismatch() {
  using perfbench::Options;
  Options opts;
  opts.seed = 11;
  const std::pair<const char*, std::unique_ptr<perfbench::Workload> (*)(
                                   const Options&)>
      workloads[] = {{"fleet_serve", perfbench::make_fleet_serve},
                     {"batch_solve", perfbench::make_batch_solve}};
  for (const auto& [name, make] : workloads) {
    perfbench::Result result;
    auto w = make(opts);
    const perfbench::PhaseOut a = w->phase(1, true, nullptr, result);
    const perfbench::PhaseOut b = w->phase(1, true, nullptr, result);
    w->verify_solo(result);
    expect(result.correct, std::string(name) + ": clean run is correct");
    expect(a.allocs > 0 && a.allocs == b.allocs && a.ops == b.ops,
           std::string(name) + ": allocations repeat exactly (" +
               std::to_string(a.allocs) + " vs " + std::to_string(b.allocs) +
               ")");

    Options bad = opts;
    bad.inject_mismatch = true;
    perfbench::Result caught;
    auto v = make(bad);
    v->phase(1, false, nullptr, caught);
    v->phase(2, false, nullptr, caught);
    expect(!caught.correct,
           std::string(name) + ": a perturbed expected output is caught");
  }
}

}  // namespace

int main() {
  test_self_time_subtracts_children_once();
  test_open_close_nesting();
  test_percentile_rule();
  test_metric_names();
  test_alloc_hook();
  test_allocs_repeat_and_mismatch();
  if (g_failures > 0) {
    std::cerr << g_failures << " perfbench self-test(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
