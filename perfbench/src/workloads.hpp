// The workloads and the traced layer ladder.
//
// A workload runs in phases.  A phase builds the system at a given engine
// width (1 = inline, 2 = two workers), sets it up and warms it, then
// measures a fixed amount of work in a closed loop.  Every phase does
// identical work, so allocation counts and outputs repeat exactly, and each
// phase's outputs are compared bitwise with the first phase's.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_mismatch = false;  // perturb one expected output (self-test)
};

struct PhaseOut {
  double setup_s = 0.0;     // construction, registration, warm-up
  double measured_s = 0.0;  // wall time of the measured closed loop
  std::uint64_t ops = 0;    // ops completed in the measured loop
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t allocs = 0;  // heap allocations in the measured loop
  std::vector<double> latency_us;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One phase at `workers` engine workers.  Counts allocations when
  /// `count_allocs`; records spans around each library call when `spans`
  /// is non-null.  Mismatches against the reference land in `result`.
  virtual PhaseOut phase(std::size_t workers, bool count_allocs,
                         SpanRecorder* spans, Result& result) = 0;
  /// Checks the first phase's outputs against standalone solves.
  virtual void verify_solo(Result& result) = 0;
  /// Workload-specific counts for the provenance line.
  virtual void describe(Provenance& provenance) const = 0;
  /// The fixed percentile latency_tail_us reports for this workload.
  virtual double latency_percentile() const = 0;
};

std::unique_ptr<Workload> make_fleet_serve(const Options& opts);
std::unique_ptr<Workload> make_batch_solve(const Options& opts);

/// The layer ladder: feeds each workload's seeded inputs through each
/// layer's public entry points, bottom up, with spans around every call,
/// and adds every per-layer metric to `result`.
void run_ladder(const Options& opts, Result& result, SpanRecorder& spans);

}  // namespace perfbench
