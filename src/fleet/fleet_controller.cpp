#include "fleet/fleet_controller.hpp"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "util/audit.hpp"
#include "util/stopwatch.hpp"

namespace rs::fleet {

FleetController::FleetController(FleetOptions options)
    : options_(std::move(options)),
      store_(options_.checkpoint_dir),
      engine_(rs::engine::SolverEngine::Options{.threads = options_.threads}) {
  if (options_.tick_budget_seconds < 0.0) {
    throw std::invalid_argument(
        "FleetOptions: tick_budget_seconds must be >= 0");
  }
  if (options_.max_events < 1) {
    throw std::invalid_argument("FleetOptions: max_events must be >= 1");
  }
}

std::size_t FleetController::add_tenant(TenantConfig config) {
  // Sanitized names key the checkpoint store; a collision would make two
  // tenants overwrite each other's recovery state.
  const std::string key = rs::core::CheckpointStore::sanitize_key(config.name);
  for (const auto& existing : tenants_) {
    if (rs::core::CheckpointStore::sanitize_key(existing->config().name) ==
        key) {
      throw std::invalid_argument(
          "FleetController::add_tenant: duplicate tenant name (after "
          "sanitization): " +
          config.name);
    }
  }
  const std::size_t ordinal = tenants_.size();
  if (config.form_cache == nullptr) config.form_cache = &form_cache_;
  tenants_.push_back(std::make_unique<TenantSession>(
      std::move(config), ordinal, store_.persistent() ? &store_ : nullptr));
  return ordinal;
}

TenantSession& FleetController::tenant(std::size_t ordinal) {
  if (ordinal >= tenants_.size()) {
    throw std::out_of_range("FleetController::tenant: bad ordinal");
  }
  return *tenants_[ordinal];
}

const TenantSession& FleetController::tenant(std::size_t ordinal) const {
  if (ordinal >= tenants_.size()) {
    throw std::out_of_range("FleetController::tenant: bad ordinal");
  }
  return *tenants_[ordinal];
}

bool FleetController::offer(std::size_t ordinal, double lambda) {
  return tenant(ordinal).offer(lambda);
}

bool FleetController::offer_run(std::size_t ordinal, double lambda,
                                int count) {
  return tenant(ordinal).offer_run(lambda, count);
}

void FleetController::finish_streams() {
  for (const auto& session : tenants_) session->finish_stream();
}

TickReport FleetController::tick() {
  const std::lock_guard<std::mutex> tick_lock(tick_mutex_);
  // Interactive tenants start (and therefore finish) ahead of batch ones,
  // so a tick deadline defers batch work first; one pass per class keeps
  // registration order within it.  Decisions are unaffected — priority
  // only reorders who runs when.
  due_.clear();
  for (const Priority cls : {Priority::kInteractive, Priority::kBatch}) {
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      if (tenants_[i]->config().priority == cls && tenants_[i]->due()) {
        due_.push_back(i);
      }
    }
  }
  TickReport report;
  report.due = due_.size();
  // Progress guarantee: the first tenant to reach the gate always runs,
  // so even a sub-microsecond budget cannot defer a whole tick forever.
  struct Gate {
    rs::util::Stopwatch watch;
    std::atomic<bool> started{false};
  } gate;
  if (!due_.empty()) {
    advanced_.assign(due_.size(), 0);
    deferred_.assign(due_.size(), 0);
    // [this, &gate] fits std::function's inline buffer: no allocation.
    engine_.for_each(
        due_.size(),
        [this, &gate](std::size_t i) {
          const bool first =
              !gate.started.exchange(true, std::memory_order_acq_rel);
          const double budget = options_.tick_budget_seconds;
          if (!first && budget > 0.0 && gate.watch.seconds() > budget) {
            deferred_[i] = 1;
            tenants_[due_[i]]->note_deferred();
            return;
          }
          advanced_[i] = tenants_[due_[i]]->step(store_);
        });
    for (std::size_t i = 0; i < due_.size(); ++i) {
      if (deferred_[i] != 0) {
        ++report.deferred;
        continue;
      }
      if (advanced_[i] > 0) {
        ++report.advanced_tenants;
        report.advanced_slots += static_cast<std::size_t>(advanced_[i]);
      }
      // Every due tenant was non-quarantined at tick start, so a
      // quarantined state now is a this-tick transition.
      if (tenants_[due_[i]]->state() == TenantState::kQuarantined) {
        ++report.quarantined;
      }
    }
  }
  report.seconds = gate.watch.seconds();
  // Post-tick consistency sweep: every tenant the tick touched is back in
  // a coherent resting state (no tenant is left mid-recovery, every
  // quarantine carries its reason, trajectories in-corridor).
  RS_AUDIT(for (const std::size_t i : due_) {
    tenants_[i]->audit_invariants("FleetController::tick");
  });
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++ticks_;
    total_slots_ += report.advanced_slots;
    busy_seconds_ += report.seconds;
    drain_tenant_events_locked();
  }
  return report;
}

std::size_t FleetController::run_until_drained(std::size_t max_ticks) {
  for (std::size_t t = 0; t < max_ticks; ++t) {
    bool any_due = false;
    for (const auto& session : tenants_) {
      if (session->due()) {
        any_due = true;
        break;
      }
    }
    if (!any_due) return t;
    tick();
  }
  throw std::runtime_error(
      "FleetController::run_until_drained: fleet not drained after " +
      std::to_string(max_ticks) + " ticks");
}

void FleetController::checkpoint_all() {
  for (const auto& session : tenants_) session->checkpoint_now(store_);
  std::lock_guard<std::mutex> lock(mutex_);
  drain_tenant_events_locked();
}

FleetStats FleetController::stats() const {
  FleetStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.ticks = ticks_;
    out.tenant_steps = total_slots_;
    out.busy_seconds = busy_seconds_;
  }
  out.tenant_steps_per_second =
      out.busy_seconds > 0.0
          ? static_cast<double>(out.tenant_steps) / out.busy_seconds
          : 0.0;
  for (const auto& session : tenants_) {
    const TenantStats stats = session->stats();
    out.checkpoints += stats.checkpoints;
    out.recoveries += stats.recoveries;
    out.deferrals += stats.deferrals;
    switch (session->state()) {
      case TenantState::kQuarantined:
        ++out.quarantined;
        break;
      case TenantState::kDegraded:
        ++out.degraded;
        break;
      case TenantState::kHealthy:
      case TenantState::kRecovering:
        ++out.healthy;
        break;
    }
  }
  return out;
}

std::vector<FleetEvent> FleetController::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_tenant_events_locked();
  return events_;
}

std::uint64_t FleetController::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_events_;
}

void FleetController::drain_tenant_events_locked() const {
  for (const auto& session : tenants_) {
    dropped_events_ += session->drain_events_into(events_, options_.max_events);
  }
}

}  // namespace rs::fleet
