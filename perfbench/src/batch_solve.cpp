// batch_solve — the analyst / Monte-Carlo path.
//
// SolverEngine::run on batches of 16 distinct restricted M/M/1 instances
// (T = 672, m = 256), each with three jobs (kDpSchedule, kLcp, kDpCost) that
// share one dense table.  These instances have no compact PWL form, so the
// path is eval_row, DenseProblem, the dense DP and tracker kernels, and
// engine sharing and parallelism — no ConvexPwl, fleet or checkpoint code.
// A PWL or fleet change therefore predicts no change here.  Closed loop: a
// batch caller waits for its batch.  The op is the instance; each batch is
// one latency sample.
#include <bit>
#include <optional>

#include "alloc_hook.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kBatches = 4;            // distinct batches, cycled
constexpr int kMeasuredBatches = 24;   // per phase

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_outcomes(const std::vector<rs::engine::SolveOutcome>& a,
                   const std::vector<rs::engine::SolveOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].status != b[i].status || !same_bits(a[i].cost, b[i].cost) ||
        a[i].schedule != b[i].schedule) {
      return false;
    }
  }
  return true;
}

class BatchSolve final : public Workload {
 public:
  explicit BatchSolve(const Options& opts)
      : opts_(opts), inputs_(batch_solve::inputs(opts.seed, kBatches)) {
    for (int b = 0; b < kBatches; ++b) jobs_.push_back(inputs_.jobs(b));
  }

  PhaseOut phase(std::size_t workers, bool count_allocs, SpanRecorder* spans,
                 Result& result) override {
    PhaseOut out;
    const std::int64_t setup_start = now_ns();
    rs::engine::SolverEngine::Options options;
    options.threads = workers;
    const rs::engine::SolverEngine engine(options);
    // One warm batch fills the per-thread workspace arenas.
    engine.run(jobs_[0]);
    out.setup_s = seconds_since(setup_start);

    std::vector<std::vector<rs::engine::SolveOutcome>> outcomes;
    std::uint64_t failed_jobs = 0;
    std::optional<alloc::Counter> counter;
    if (count_allocs) counter.emplace();
    const std::int64_t measure_start = now_ns();
    for (int k = 0; k < kMeasuredBatches; ++k) {
      const std::vector<rs::engine::SolveJob>& jobs = jobs_[k % kBatches];
      const std::int64_t start = now_ns();
      rs::engine::BatchResult r;
      {
        const SpanRecorder::Scope span(spans, "engine.run");
        r = engine.run(jobs);
      }
      out.latency_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
      failed_jobs += r.stats.failed_jobs;
      out.ops += BatchInputs::kPerBatch;
      outcomes.push_back(std::move(r.outcomes));
    }
    out.measured_s = seconds_since(measure_start);
    if (counter) out.allocs = counter->value();
    counter.reset();

    // An instance counts as failed when any of its jobs failed.
    out.attempted = out.ops;
    std::uint64_t failed_instances = 0;
    for (const auto& batch : outcomes) {
      for (std::size_t j = 0; j < batch.size(); j += 3) {
        if (!batch[j].ok() || !batch[j + 1].ok() || !batch[j + 2].ok()) {
          ++failed_instances;
        }
      }
    }
    out.failed = failed_instances;
    out.ops -= failed_instances;
    result.check(failed_jobs == 0, "batch_solve: failed jobs");

    if (!reference_) {
      reference_ = std::move(outcomes);
      if (opts_.inject_mismatch) (*reference_)[0][0].schedule[7] ^= 1;
    } else {
      bool same = true;
      for (std::size_t k = 0; k < outcomes.size(); ++k) {
        same = same && same_outcomes(outcomes[k], (*reference_)[k]);
      }
      result.check(same, "batch_solve: outcomes differ between phases (" +
                             std::to_string(workers) + " workers)");
    }
    return out;
  }

  void verify_solo(Result& result) override {
    // Instance 0 and 9 of every distinct batch against solo solves.
    for (int b = 0; b < kBatches; ++b) {
      for (const int k : {0, 9}) {
        const rs::core::Problem& p = inputs_.instances.at(
            static_cast<std::size_t>(b * BatchInputs::kPerBatch + k));
        const rs::core::DenseProblem dense(p);
        const auto& got = (*reference_)[static_cast<std::size_t>(b)];
        const std::size_t j = static_cast<std::size_t>(k) * 3;
        const rs::offline::DpSolver dp;
        const rs::offline::OfflineResult opt = dp.solve(dense);
        const rs::core::Schedule lcp = rs::online::run_lcp_dense(dense);
        const bool same =
            same_bits(got[j].cost, opt.cost) &&
            got[j].schedule == opt.schedule &&
            got[j + 1].schedule == lcp &&
            same_bits(got[j + 1].cost, rs::core::total_cost(dense, lcp)) &&
            same_bits(got[j + 2].cost, dp.solve_cost(dense));
        result.check(same, "batch_solve: batch " + std::to_string(b) +
                               " instance " + std::to_string(k) +
                               " differs from solo DpSolver / run_lcp_dense");
      }
    }
  }

  // Every batch does the same amount of work, so the slowest quarter of
  // batches measures the box's other tenants rather than the code: over
  // runs of identical code p90 spread 0.14 and p99 0.31, p75 0.05.
  double latency_percentile() const override { return 75.0; }

  void describe(Provenance& p) const override {
    p.samples["instances_per_batch"] = BatchInputs::kPerBatch;
    p.samples["distinct_batches"] = kBatches;
    p.samples["measured_batches_per_phase"] = kMeasuredBatches;
  }

 private:
  Options opts_;
  BatchInputs inputs_;
  std::vector<std::vector<rs::engine::SolveJob>> jobs_;
  std::optional<std::vector<std::vector<rs::engine::SolveOutcome>>>
      reference_;
};

}  // namespace

std::unique_ptr<Workload> make_batch_solve(const Options& opts) {
  return std::make_unique<BatchSolve>(opts);
}

}  // namespace perfbench
