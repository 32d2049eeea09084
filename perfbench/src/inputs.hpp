// Seeded inputs for the workloads and the what-if layers.  Everything here
// is a pure function of the seed and is built before any timed region.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rightsizer/rightsizer.hpp"

namespace perfbench {

/// One interned slot cost per distinct λ level, shared fleet-wide: every
/// tenant fed a level receives the same CostFunction object, which is what
/// the shared form cache keys on.  Read-only after construction, so
/// cost_of may run on any thread.
class CostBook {
 public:
  void intern(double lambda);
  /// Throws std::out_of_range for a λ that was never interned.
  rs::core::CostPtr at(double lambda) const;
  std::size_t size() const noexcept { return costs_.size(); }

 private:
  std::map<double, rs::core::CostPtr> costs_;
};

struct TenantInput {
  std::string name;
  int m = 0;
  int window = 0;
  rs::scenario::ScenarioKind kind = rs::scenario::ScenarioKind::kDiurnalWeekly;
  std::vector<double> lambdas;  // quantized zoo trace, one λ per slot
  std::vector<double> levels;   // its distinct λ values, ascending
};

struct FleetInputs {
  double beta = 6.0;
  int checkpoint_every = 16;
  std::vector<TenantInput> tenants;
  std::shared_ptr<const CostBook> costs;

  rs::fleet::TenantConfig config(std::size_t tenant, int what_if_slots,
                                 rs::fleet::Priority priority) const;
};


/// Restricted-model instances (RestrictedSlotCost over an M/M/1-style
/// load curve, T = 672, m = 256): no compact PWL form, so every solver runs
/// on dense rows.
struct BatchInputs {
  static constexpr int kPerBatch = 16;
  std::vector<rs::core::Problem> instances;
  int batches() const {
    return static_cast<int>(instances.size()) / kPerBatch;
  }
  /// kDpSchedule, kLcp and kDpCost for each instance of batch `b`.
  std::vector<rs::engine::SolveJob> jobs(int b) const;
};

/// Derives a decorrelated stream seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// Each workload's sizes and exact inputs, shared by the workload and by the
// layer ladder that replays them.  Fleet tenants have m cycling over
// {16, 64, 256, 1024, 4096} and zoo kinds cycling over diurnal /
// flash_crowd / heavy_tail, each trace scaled to its m and quantized to 24
// levels.

namespace fleet_serve {
inline constexpr int kTenants = 256;
inline constexpr int kWarmTicks = 96;
inline constexpr int kMeasuredTicks = 600;
inline constexpr int kWindow = 4;  // one tenant in eight decides with it
FleetInputs inputs(std::uint64_t seed);
}  // namespace fleet_serve

/// The what-if layers of the traced run: kSlots slots fed to every tenant,
/// then probes on a slot among each tenant's last kWhatIfSlots.
namespace whatif_repair {
inline constexpr int kTenants = 64;
inline constexpr int kWhatIfSlots = 96;
inline constexpr int kSlots = 384;
FleetInputs inputs(std::uint64_t seed);
}  // namespace whatif_repair

namespace batch_solve {
/// `batches` batches of BatchInputs::kPerBatch instances; a prefix of a
/// larger set for the same seed.
BatchInputs inputs(std::uint64_t seed, int batches);
}  // namespace batch_solve

}  // namespace perfbench
