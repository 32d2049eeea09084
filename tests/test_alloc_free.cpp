// Heap-allocation regression test for the warm per-slot paths.
//
// This binary replaces the global operator new with a counting one, so it
// is its own executable.  It asserts that, once warm, the convex-PWL
// tracker advance, the repeated-slot advance, Lcp::decide_run on a cached
// form, the windowed Lcp's shared-form decide and a fleet tick touch the
// heap zero times, that a tenant checkpoint costs at most three
// allocations, and that its checkpoint event costs none beyond them.
// Counts only: nothing here measures time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "core/convex_pwl.hpp"
#include "core/cost_function.hpp"
#include "fleet/fleet_controller.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"
#include "scenario/trace_zoo.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

// Heap allocations made by fn().
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load() - before;
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using rs::core::ConvexPwl;
using rs::core::CostPtr;
using rs::offline::WorkFunctionTracker;
using Backend = WorkFunctionTracker::Backend;

constexpr int kM = 256;
constexpr double kBeta = 6.0;
constexpr int kWarm = 1000;
constexpr int kMeasured = 200;

// A mixed bag of slot-cost shapes: one-kink SLA hinges, two-slope V's and
// a many-kink convex table, so the add merge both updates shared
// positions and inserts fresh ones.
std::vector<CostPtr> slot_costs() {
  std::vector<CostPtr> costs;
  rs::scenario::ZooParams params;
  params.servers = kM;
  for (int level = 1; level <= 6; ++level) {
    costs.push_back(rs::scenario::hinge_sla_cost(params, 30.0 * level));
  }
  for (int c = 1; c <= 5; ++c) {
    costs.push_back(std::make_shared<rs::core::AffineAbsCost>(
        0.5 * c, 40.0 * c, 1.0));
  }
  std::vector<double> table;
  for (int x = 0; x <= kM; ++x) {
    const double d = x - 100.0;
    table.push_back(0.01 * d * d + 3.0);
  }
  costs.push_back(std::make_shared<rs::core::TableCost>(table));
  return costs;
}

// A fixed pseudo-random slot sequence over the cost bag.
std::vector<int> slot_sequence(int n, std::uint64_t seed) {
  rs::util::Rng rng(seed);
  const int kinds = static_cast<int>(slot_costs().size());
  std::vector<int> seq;
  for (int t = 0; t < n; ++t) {
    seq.push_back(static_cast<int>(rng.uniform_int(0, kinds - 1)));
  }
  return seq;
}

std::vector<ConvexPwl> slot_forms() {
  std::vector<ConvexPwl> forms;
  for (const CostPtr& c : slot_costs()) forms.push_back(*c->as_convex_pwl(kM));
  return forms;
}

TEST(AllocFree, TrackerAdvancePwl) {
  const std::vector<ConvexPwl> forms = slot_forms();
  const std::vector<int> seq = slot_sequence(kWarm + kMeasured, 1);
  WorkFunctionTracker tracker(kM, kBeta, Backend::kPwl);
  for (int t = 0; t < kWarm; ++t) tracker.advance(forms[seq[t]]);
  const std::uint64_t n = allocations_in([&] {
    for (int t = kWarm; t < kWarm + kMeasured; ++t) {
      tracker.advance(forms[seq[t]]);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(tracker.using_pwl());
}

TEST(AllocFree, TrackerAdvanceRepeatedPwl) {
  const std::vector<ConvexPwl> forms = slot_forms();
  const std::vector<int> seq = slot_sequence(kWarm + kMeasured, 2);
  WorkFunctionTracker tracker(kM, kBeta, Backend::kPwl);
  std::vector<int> xl(8);
  std::vector<int> xu(8);
  for (int t = 0; t < kWarm; ++t) {
    tracker.advance_repeated(forms[seq[t]], 8, xl, xu);
  }
  const std::uint64_t n = allocations_in([&] {
    for (int t = kWarm; t < kWarm + kMeasured; ++t) {
      tracker.advance_repeated(forms[seq[t]], 8, xl, xu);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocFree, LcpDecideRunOnCachedForm) {
  const std::vector<ConvexPwl> forms = slot_forms();
  const std::vector<int> seq = slot_sequence(kWarm + kMeasured, 3);
  rs::online::Lcp lcp;
  lcp.reset(rs::online::OnlineContext{kM, kBeta});
  std::vector<int> decisions(4);
  std::vector<int> lower(4);
  std::vector<int> upper(4);
  const auto run_length = [](int t) { return 1 + t % 4; };
  for (int t = 0; t < kWarm; ++t) {
    lcp.decide_run(forms[seq[t]], run_length(t), decisions, lower, upper);
  }
  const std::uint64_t n = allocations_in([&] {
    for (int t = kWarm; t < kWarm + kMeasured; ++t) {
      lcp.decide_run(forms[seq[t]], run_length(t), decisions, lower, upper);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocFree, WindowedLcpDecideOnSharedForms) {
  constexpr int kWindow = 4;
  const std::vector<CostPtr> costs = slot_costs();
  const std::vector<ConvexPwl> forms = slot_forms();
  const std::vector<int> seq = slot_sequence(kWarm + kMeasured + kWindow, 4);
  rs::online::Lcp session(Backend::kAuto, kWindow);
  session.reset(rs::online::OnlineContext{kM, kBeta});
  std::vector<CostPtr> lookahead(kWindow);
  std::vector<const ConvexPwl*> lookahead_forms(kWindow);
  const auto step = [&](int t) {
    for (int j = 0; j < kWindow; ++j) {
      lookahead[j] = costs[seq[t + 1 + j]];
      lookahead_forms[j] = &forms[seq[t + 1 + j]];
    }
    session.decide(costs[seq[t]], lookahead, &forms[seq[t]], lookahead_forms);
  };
  for (int t = 0; t < kWarm; ++t) step(t);
  const std::uint64_t n = allocations_in([&] {
    for (int t = kWarm; t < kWarm + kMeasured; ++t) step(t);
  });
  EXPECT_EQ(n, 0u);
}

// A warm tenant's checkpoint emits one kCheckpointed event.  Emitting it
// and draining it into a warm log must cost nothing beyond the snapshot
// bytes themselves: the tenant's event buffer keeps its capacity across
// drains.
TEST(AllocFree, CheckpointEventAddsNothingToTheSnapshot) {
  const std::vector<CostPtr> costs = slot_costs();
  rs::fleet::TenantConfig config;
  config.name = "events";
  config.m = kM;
  config.beta = kBeta;
  config.cost_of = [&costs](double lambda) {
    return costs[static_cast<std::size_t>(lambda) % costs.size()];
  };
  rs::fleet::TenantSession tenant(config, 0);
  rs::core::CheckpointStore store;
  std::vector<rs::fleet::FleetEvent> log;
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(tenant.offer(static_cast<double>(k)));
    ASSERT_EQ(tenant.step(store), 1);
    tenant.checkpoint_now(store);
    log.clear();
    tenant.drain_events_into(log);
  }
  const std::uint64_t snapshot =
      allocations_in([&] { (void)tenant.snapshot_bytes(); });
  log.clear();
  std::uint64_t dropped = 0;
  const std::uint64_t checkpoint = allocations_in([&] {
    tenant.checkpoint_now(store);
    dropped = tenant.drain_events_into(log);
  });
  EXPECT_GT(snapshot, 0u);
  EXPECT_EQ(checkpoint, snapshot);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.front().kind, rs::fleet::FleetEventKind::kCheckpointed);
}

// A mixed fleet like the serving benchmark's: plain and windowed (w = 4)
// tenants over interned hinge-SLA costs, ticked in lockstep at
// threads = 1.  Each tenant replays one day of a zoo trace over and over,
// so by the measured ticks every tenant has already seen the inputs it
// meets there, in the same phase: its slope arrays have reached their
// high-water marks (a never-seen breakpoint count grows an array once, by
// design, and is not what this test is about).
class FleetAllocations : public ::testing::Test {
 protected:
  static constexpr int kTenants = 16;
  static constexpr int kWindow = 4;
  static constexpr int kDay = 96;
  static constexpr int kSizes[] = {16, 64, 256, 1024};
  // The decided trajectory is a growing record (amortized doubling); the
  // measured ticks sit between 1024 and 2048 decided slots, where no
  // trajectory vector doubles, so the count isolates the per-step path.
  static constexpr int kWarmTicks = 1100;
  static constexpr int kTicks = kWarmTicks + 200;

  void SetUp() override {
    rs::fleet::FleetOptions options;
    options.threads = 1;
    fleet_ = std::make_unique<rs::fleet::FleetController>(options);
    rs::scenario::ZooParams zoo;
    zoo.horizon = kDay;
    zoo.slots_per_day = kDay;
    for (int i = 0; i < kTenants; ++i) {
      const int m = kSizes[i % 4];
      const int window = i % 4 == 3 ? kWindow : 0;
      zoo.servers = m;
      zoo.peak = 0.7 * m;
      const rs::scenario::Scenario s = rs::scenario::make_scenario(
          rs::scenario::ScenarioKind::kDiurnalWeekly, zoo,
          static_cast<std::uint64_t>(100 + i));
      days_.push_back(s.trace.lambda);
      for (const double lambda : s.trace.lambda) {
        if (costs_.count(lambda) == 0) {
          costs_.emplace(lambda, rs::scenario::hinge_sla_cost(zoo, lambda));
        }
      }
      rs::fleet::TenantConfig c;
      c.name = "tenant-" + std::to_string(i);
      c.m = m;
      c.beta = kBeta;
      c.window = window;
      c.checkpoint_every = 16;
      c.cost_of = [this](double lambda) { return costs_.at(lambda); };
      fleet_->add_tenant(std::move(c));
      next_.push_back(0);
      // Windowed tenants hold w slots of lookahead before deciding; from
      // then on every tenant is due on every tick.
      for (int k = 0; k < window; ++k) offer(i);
    }
  }

  void offer(int i) {
    const std::vector<double>& day = days_[i];
    ASSERT_TRUE(fleet_->offer(static_cast<std::size_t>(i),
                              day[next_[i]++ % day.size()]));
  }

  void offer_all() {
    for (int i = 0; i < kTenants; ++i) offer(i);
  }

  std::unique_ptr<rs::fleet::FleetController> fleet_;
  std::map<double, CostPtr> costs_;
  std::vector<std::vector<double>> days_;
  std::vector<std::size_t> next_;
};

TEST_F(FleetAllocations, NonCheckpointTicksAreAllocationFree) {
  for (int k = 0; k < kWarmTicks; ++k) {
    offer_all();
    fleet_->tick();
  }
  std::uint64_t counted_ticks = 0;
  std::uint64_t allocations = 0;
  for (int k = kWarmTicks; k < kTicks; ++k) {
    const std::uint64_t checkpoints = fleet_->stats().checkpoints;
    rs::fleet::TickReport report;
    const std::uint64_t n = allocations_in([&] {
      offer_all();
      report = fleet_->tick();
    });
    ASSERT_EQ(report.advanced_slots, static_cast<std::size_t>(kTenants));
    if (fleet_->stats().checkpoints != checkpoints) continue;
    ++counted_ticks;
    allocations += n;
  }
  EXPECT_EQ(allocations, 0u);
  // Checkpoints fall on one tick in 16 (lockstep cadence).
  EXPECT_GE(counted_ticks, 180u);
  const rs::fleet::FleetStats stats = fleet_->stats();
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_GT(fleet_->form_cache().hits(), 0u);
}

TEST_F(FleetAllocations, TenantSnapshotTakesAtMostThreeAllocations) {
  for (int k = 0; k < 64; ++k) {
    offer_all();
    fleet_->tick();
  }
  for (int i = 0; i < kTenants; ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    std::vector<std::uint8_t> bytes;
    const std::uint64_t n = allocations_in([&] {
      bytes = fleet_->tenant(static_cast<std::size_t>(i)).snapshot_bytes();
    });
    EXPECT_LE(n, 3u);
    EXPECT_FALSE(bytes.empty());
  }
}

}  // namespace
