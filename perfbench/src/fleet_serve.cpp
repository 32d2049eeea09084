// fleet_serve — the resident serving path.
//
// 256 tenants (m cycling over 16..4096, β = 6, kAuto, checkpoint every 16
// slots, one in eight windowed with w = 4) each fed a quantized zoo trace.
// Closed loop: a fleet operator sizes by tick makespan, so each latency
// sample is one tick — offer one λ to every tenant, then tick().  The op is
// the tenant-step.  The path covers ingest, the shared form cache, tick
// dispatch, the PWL tracker, the eq. 13 projection and checkpointing; no
// dense rows and no DP.  Tenants checkpoint in lockstep every 16 ticks, so
// the tail percentile measures the checkpoint layer and the median the
// bare step.
#include <optional>

#include "alloc_hook.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace perfbench::fleet_serve;

struct Trajectories {
  std::vector<std::vector<int>> schedule;
  std::vector<std::vector<int>> lower;
  std::vector<std::vector<int>> upper;

  bool operator==(const Trajectories&) const = default;
};

class FleetServe final : public Workload {
 public:
  explicit FleetServe(const Options& opts)
      : opts_(opts), inputs_(fleet_serve::inputs(opts.seed)) {}

  PhaseOut phase(std::size_t workers, bool count_allocs, SpanRecorder* spans,
                 Result& result) override {
    PhaseOut out;
    const std::int64_t setup_start = now_ns();
    rs::fleet::FleetOptions options;
    options.threads = workers;
    rs::fleet::FleetController fleet(options);
    for (std::size_t i = 0; i < inputs_.tenants.size(); ++i) {
      fleet.add_tenant(inputs_.config(i, 0, rs::fleet::Priority::kBatch));
    }
    std::vector<std::size_t> next(inputs_.tenants.size(), 0);
    std::uint64_t rejected = 0;
    // Windowed tenants hold w samples of lookahead before their first
    // decision; afterwards every tenant is due on every tick.
    for (std::size_t i = 0; i < inputs_.tenants.size(); ++i) {
      const TenantInput& t = inputs_.tenants[i];
      for (int k = 0; k < t.window; ++k) {
        if (!fleet.offer(i, t.lambdas[next[i]++])) ++rejected;
      }
    }
    std::uint64_t bad_ticks = 0;
    const auto tick = [&](SpanRecorder* s) {
      {
        const SpanRecorder::Scope span(s, "fleet.offer_all");
        for (std::size_t i = 0; i < inputs_.tenants.size(); ++i) {
          if (!fleet.offer(i, inputs_.tenants[i].lambdas[next[i]++])) {
            ++rejected;
          }
        }
      }
      rs::fleet::TickReport report;
      {
        const SpanRecorder::Scope span(s, "fleet.tick");
        report = fleet.tick();
      }
      if (report.due != inputs_.tenants.size() ||
          report.advanced_tenants != report.due ||
          report.advanced_slots != report.due || report.deferred != 0) {
        ++bad_ticks;
      }
      return report;
    };
    for (int k = 0; k < kWarmTicks; ++k) tick(nullptr);
    out.setup_s = seconds_since(setup_start);

    std::optional<alloc::Counter> counter;
    if (count_allocs) counter.emplace();
    const std::int64_t measure_start = now_ns();
    for (int k = 0; k < kMeasuredTicks; ++k) {
      const std::int64_t start = now_ns();
      const rs::fleet::TickReport report = tick(spans);
      out.latency_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
      out.ops += report.advanced_slots;
      out.attempted += inputs_.tenants.size();
    }
    out.measured_s = seconds_since(measure_start);
    if (counter) out.allocs = counter->value();
    counter.reset();

    out.failed = out.attempted - out.ops + rejected;
    const rs::fleet::FleetStats stats = fleet.stats();
    result.check(bad_ticks == 0,
                 "fleet_serve: " + std::to_string(bad_ticks) +
                     " ticks did not advance every tenant exactly once");
    result.check(rejected == 0, "fleet_serve: offers rejected");
    result.check(stats.quarantined == 0 && stats.deferrals == 0 &&
                     stats.recoveries == 0,
                 "fleet_serve: quarantines, deferrals or recoveries");

    Trajectories got;
    for (std::size_t i = 0; i < inputs_.tenants.size(); ++i) {
      got.schedule.push_back(fleet.tenant(i).schedule());
      got.lower.push_back(fleet.tenant(i).lower_bounds());
      got.upper.push_back(fleet.tenant(i).upper_bounds());
    }
    if (!reference_) {
      reference_ = std::move(got);
      if (opts_.inject_mismatch) reference_->schedule[0][5] ^= 1;
    } else {
      result.check(got == *reference_,
                   "fleet_serve: schedules or corridor bounds differ between "
                   "phases (" + std::to_string(workers) + " workers)");
    }
    return out;
  }

  void verify_solo(Result& result) override {
    // Standalone Lcp replays of window-0 tenants spread over every m.
    for (std::size_t i = 0; i < inputs_.tenants.size(); i += 13) {
      const TenantInput& t = inputs_.tenants[i];
      if (t.window != 0) continue;
      rs::online::Lcp lcp;
      lcp.reset(rs::online::OnlineContext{t.m, inputs_.beta});
      const std::vector<int>& x = reference_->schedule[i];
      bool same = x.size() == kWarmTicks + kMeasuredTicks;
      for (std::size_t s = 0; same && s < x.size(); ++s) {
        const int decided =
            lcp.decide(inputs_.costs->at(t.lambdas[s]), {});
        same = decided == x[s] && lcp.last_lower() == reference_->lower[i][s] &&
               lcp.last_upper() == reference_->upper[i][s];
      }
      result.check(same, "fleet_serve: " + t.name +
                             " differs from a standalone Lcp replay");
    }
  }

  // A run holds tens of thousands of ticks; the checkpoint ticks are the
  // top 1/16 of them, so p99 lies inside the checkpoint layer.
  double latency_percentile() const override { return 99.0; }

  void describe(Provenance& p) const override {
    p.samples["tenants"] = kTenants;
    p.samples["warm_ticks_per_phase"] = kWarmTicks;
    p.samples["measured_ticks_per_phase"] = kMeasuredTicks;
    p.samples["distinct_costs"] = static_cast<double>(inputs_.costs->size());
  }

 private:
  Options opts_;
  FleetInputs inputs_;
  std::optional<Trajectories> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_serve(const Options& opts) {
  return std::make_unique<FleetServe>(opts);
}

}  // namespace perfbench
