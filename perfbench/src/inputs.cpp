#include "inputs.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace perfbench {

namespace {

using rs::scenario::ScenarioKind;

constexpr int kSizes[] = {16, 64, 256, 1024, 4096};
constexpr ScenarioKind kKinds[] = {ScenarioKind::kDiurnalWeekly,
                                   ScenarioKind::kFlashCrowd,
                                   ScenarioKind::kHeavyTail};

FleetInputs make_fleet_inputs(std::uint64_t seed, int tenants, int horizon,
                              int window) {
  FleetInputs out;
  auto book = std::make_shared<CostBook>();
  for (int i = 0; i < tenants; ++i) {
    TenantInput t;
    t.name = "tenant-" + std::to_string(i);
    t.m = kSizes[static_cast<std::size_t>(i) % std::size(kSizes)];
    t.kind = kKinds[static_cast<std::size_t>(i) % std::size(kKinds)];
    t.window = i % 8 == 7 ? window : 0;
    rs::scenario::ZooParams params;
    params.servers = t.m;
    params.beta = out.beta;
    params.horizon = horizon;
    params.peak = 0.7 * t.m;
    const rs::scenario::Scenario s = rs::scenario::make_scenario(
        t.kind, params, derive_seed(seed, static_cast<std::uint64_t>(i)));
    t.lambdas = s.trace.lambda;
    if (static_cast<int>(t.lambdas.size()) != horizon) {
      throw std::logic_error("make_fleet_inputs: trace length mismatch");
    }
    t.levels = t.lambdas;
    std::sort(t.levels.begin(), t.levels.end());
    t.levels.erase(std::unique(t.levels.begin(), t.levels.end()),
                   t.levels.end());
    for (const double lambda : t.levels) book->intern(lambda);
    out.tenants.push_back(std::move(t));
  }
  out.costs = std::move(book);
  return out;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ull);
  return rs::util::splitmix64(state);
}

void CostBook::intern(double lambda) {
  if (costs_.count(lambda) == 0) {
    costs_.emplace(lambda,
                   rs::scenario::hinge_sla_cost(rs::scenario::ZooParams{},
                                                lambda));
  }
}

rs::core::CostPtr CostBook::at(double lambda) const {
  return costs_.at(lambda);
}

rs::fleet::TenantConfig FleetInputs::config(
    std::size_t tenant, int what_if_slots,
    rs::fleet::Priority priority) const {
  const TenantInput& in = tenants.at(tenant);
  rs::fleet::TenantConfig c;
  c.name = in.name;
  c.m = in.m;
  c.beta = beta;
  c.window = in.window;
  c.cost_of = [book = costs](double lambda) { return book->at(lambda); };
  c.checkpoint_every = checkpoint_every;
  c.priority = priority;
  c.what_if_slots = what_if_slots;
  return c;
}


FleetInputs fleet_serve::inputs(std::uint64_t seed) {
  return make_fleet_inputs(derive_seed(seed, 1), kTenants,
                           kWarmTicks + kMeasuredTicks + kWindow, kWindow);
}

FleetInputs whatif_repair::inputs(std::uint64_t seed) {
  return make_fleet_inputs(derive_seed(seed, 3), kTenants, kSlots, 0);
}

std::vector<rs::engine::SolveJob> BatchInputs::jobs(int b) const {
  std::vector<rs::engine::SolveJob> jobs;
  for (int k = 0; k < kPerBatch; ++k) {
    const rs::core::Problem* p =
        &instances.at(static_cast<std::size_t>(b * kPerBatch + k));
    for (const rs::engine::SolverKind kind :
         {rs::engine::SolverKind::kDpSchedule, rs::engine::SolverKind::kLcp,
          rs::engine::SolverKind::kDpCost}) {
      rs::engine::SolveJob job;
      job.problem = p;
      job.kind = kind;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

BatchInputs batch_solve::inputs(std::uint64_t seed, int batches) {
  constexpr int kT = 672;
  constexpr int kM = 256;
  // Per-server operating cost against utilization z: energy plus an
  // M/M/1-style delay term that grows as z approaches saturation.
  auto load_cost = std::make_shared<const std::function<double(double)>>(
      [](double z) { return 1.0 + 0.2 * z * z + 0.5 / (1.1 - z); });
  BatchInputs out;
  const int n = batches * BatchInputs::kPerBatch;
  for (int i = 0; i < n; ++i) {
    rs::scenario::ZooParams params;
    params.servers = kM;
    params.horizon = kT;
    params.peak = 0.6 * kM;
    params.quantize_levels = 4096;  // near-continuous λ: one row per slot
    const rs::scenario::Scenario s = rs::scenario::make_scenario(
        kKinds[static_cast<std::size_t>(i) % std::size(kKinds)], params,
        derive_seed(derive_seed(seed, 2), static_cast<std::uint64_t>(i)));
    std::vector<rs::core::CostPtr> fs;
    fs.reserve(kT);
    for (const double lambda : s.trace.lambda) {
      fs.push_back(
          std::make_shared<rs::core::RestrictedSlotCost>(load_cost, lambda));
    }
    out.instances.emplace_back(kM, 6.0, std::move(fs));
  }
  return out;
}

}  // namespace perfbench
