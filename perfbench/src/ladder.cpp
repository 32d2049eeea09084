// The layer ladder of the traced run.
//
// Each workload's seeded inputs go through the public entry points of each
// layer, bottom up, with a span around every timed unit.  A unit is repeated
// kReps times on fresh state and its fastest repetition is kept: other
// tenants of the machine only ever add time, so the minimum is the steadiest
// estimate of a layer's own cost, and differences of minima (self times)
// stay meaningful.  A level's self time is its time minus the level below,
// measured on identical inputs: decide_run over advance, step over
// decide_run, what_if over clone + repair, engine.run over the solo solves.
#include <algorithm>
#include <memory>
#include <optional>
#include <set>

#include "alloc_hook.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rs::offline::WorkFunctionTracker;

constexpr int kReps = 11;

/// Per-unit minimum over repetitions.
class MinTimes {
 public:
  explicit MinTimes(std::size_t units) : best_(units, -1) {}
  void record(std::size_t unit, std::int64_t ns) {
    std::int64_t& b = best_.at(unit);
    if (b < 0 || ns < b) b = ns;
  }
  double sum() const {
    double s = 0.0;
    for (const std::int64_t b : best_) s += static_cast<double>(b);
    return s;
  }

 private:
  std::vector<std::int64_t> best_;
};

/// Runs fn inside a span and returns its duration.
template <class Fn>
std::int64_t timed(SpanRecorder& spans, const char* name, Fn&& fn) {
  const int id = spans.open(name);
  fn();
  spans.close(id);
  const Span& s = spans.spans()[static_cast<std::size_t>(id)];
  return s.end_ns - s.start_ns;
}

// ---------------------------------------------------------------------------
// fleet_serve inputs: to_pwl → advance → decide_run → offer/step → snapshot
// ---------------------------------------------------------------------------

/// Returns the workspace-arena growths of its warm repetitions.
std::uint64_t fleet_layers(const Options& opts, Result& result,
                           SpanRecorder& spans) {
  constexpr int kSlots = 512;
  const FleetInputs in = fleet_serve::inputs(opts.seed);
  std::vector<std::size_t> plain;  // window-0 tenants: the decide_run path
  for (std::size_t i = 0; i < in.tenants.size(); ++i) {
    if (in.tenants[i].window == 0) plain.push_back(i);
  }
  const std::size_t n = plain.size();

  // core: one conversion per distinct (cost, m), as the form cache does.
  std::vector<std::pair<rs::core::CostPtr, int>> distinct;
  {
    std::set<std::pair<const rs::core::CostFunction*, int>> seen;
    for (const std::size_t i : plain) {
      const TenantInput& t = in.tenants[i];
      for (const double lambda : t.levels) {
        const rs::core::CostPtr c = in.costs->at(lambda);
        if (seen.insert({c.get(), t.m}).second) distinct.emplace_back(c, t.m);
      }
    }
  }
  MinTimes to_pwl(distinct.size());
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t k = 0; k < distinct.size(); ++k) {
      const auto& [cost, m] = distinct[k];
      to_pwl.record(k, timed(spans, "core.to_pwl", [&] {
        const auto form =
            cost->as_convex_pwl(m, rs::core::compact_pwl_budget_for(m));
        result.check(form.has_value(), "ladder: hinge cost has no PWL form");
      }));
    }
  }
  result.add("core.to_pwl_ns",
             to_pwl.sum() / static_cast<double>(distinct.size()), "ns");

  // Shared forms, looked up outside every timed unit.
  rs::fleet::SlotFormCache forms_cache;
  std::vector<std::vector<std::shared_ptr<const rs::core::ConvexPwl>>> forms(
      n);
  for (std::size_t k = 0; k < n; ++k) {
    const TenantInput& t = in.tenants[plain[k]];
    for (int s = 0; s < kSlots; ++s) {
      forms[k].push_back(
          forms_cache.form_for(in.costs->at(t.lambdas[s]), t.m));
    }
  }

  MinTimes advance(kSlots), decide(kSlots), offer(kSlots), step(kSlots);
  MinTimes snapshot(n), put(n);
  std::uint64_t advance_allocs = 0, decide_allocs = 0, offer_allocs = 0;
  double breakpoints = 0.0;
  double snapshot_bytes = 0.0;
  double hit_ratio = 0.0;
  std::uint64_t growths = 0;
  for (int r = 0; r < kReps; ++r) {
    std::vector<WorkFunctionTracker> trackers;
    std::vector<std::unique_ptr<rs::online::Lcp>> lcps;
    std::vector<std::unique_ptr<rs::fleet::TenantSession>> sessions;
    rs::fleet::SlotFormCache session_cache;
    rs::core::CheckpointStore store;
    trackers.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const TenantInput& t = in.tenants[plain[k]];
      trackers.emplace_back(t.m, in.beta, WorkFunctionTracker::Backend::kAuto);
      lcps.push_back(std::make_unique<rs::online::Lcp>());
      lcps.back()->reset(rs::online::OnlineContext{t.m, in.beta});
      rs::fleet::TenantConfig config =
          in.config(plain[k], 0, rs::fleet::Priority::kBatch);
      config.form_cache = &session_cache;
      sessions.push_back(
          std::make_unique<rs::fleet::TenantSession>(std::move(config), k));
    }
    std::vector<int> d(1), lo(1), hi(1);
    const std::uint64_t growths_before =
        rs::util::Workspace::total_growths();
    for (int s = 0; s < kSlots; ++s) {
      const std::size_t slot = static_cast<std::size_t>(s);
      // Rotate the order so no level always runs on caches warmed by
      // another.
      for (int u = 0; u < 3; ++u) {
        switch ((s + r + u) % 3) {
          case 0: {
            const alloc::Counter allocs;
            advance.record(slot, timed(spans, "offline.advance_pwl", [&] {
              for (std::size_t k = 0; k < n; ++k) {
                trackers[k].advance(*forms[k][slot]);
              }
            }));
            advance_allocs += allocs.value();
            if (r == 0) {
              for (const WorkFunctionTracker& t : trackers) {
                breakpoints += t.breakpoint_count();
              }
            }
            break;
          }
          case 1: {
            const alloc::Counter allocs;
            decide.record(slot, timed(spans, "online.decide_run", [&] {
              for (std::size_t k = 0; k < n; ++k) {
                lcps[k]->decide_run(*forms[k][slot], 1, d, lo, hi);
              }
            }));
            decide_allocs += allocs.value();
            break;
          }
          default: {
            {
              const alloc::Counter allocs;
              offer.record(slot, timed(spans, "fleet.offer", [&] {
                for (std::size_t k = 0; k < n; ++k) {
                  sessions[k]->offer(in.tenants[plain[k]].lambdas[slot]);
                }
              }));
              offer_allocs += allocs.value();
            }
            int stepped = 0;
            step.record(slot, timed(spans, "fleet.step", [&] {
              for (std::size_t k = 0; k < n; ++k) {
                stepped += sessions[k]->step(store);
              }
            }));
            result.check(stepped == static_cast<int>(n),
                         "ladder: a standalone tenant did not step");
            break;
          }
        }
      }
    }
    if (r > 0) growths += rs::util::Workspace::total_growths() - growths_before;
    for (std::size_t k = 0; k < n; ++k) {
      std::vector<std::uint8_t> bytes;
      snapshot.record(k, timed(spans, "core.snapshot", [&] {
        bytes = sessions[k]->snapshot_bytes();
      }));
      if (r == 0) snapshot_bytes += static_cast<double>(bytes.size());
      const std::string key = sessions[k]->store_key();
      put.record(k, timed(spans, "core.store_put",
                          [&] { store.put(key, std::move(bytes)); }));
    }
    if (r == 0) {
      for (std::size_t k = 0; k < n; ++k) {
        result.check(
            sessions[k]->schedule().back() == lcps[k]->current_state(),
            "ladder: standalone session and Lcp disagree");
      }
      const double hits = static_cast<double>(session_cache.hits());
      hit_ratio =
          hits / (hits + static_cast<double>(session_cache.conversions()));
    }
  }
  const double calls = static_cast<double>(n) * kSlots;
  const double counted = calls * kReps;
  result.add("offline.advance_pwl_ns", advance.sum() / calls, "ns");
  result.add("offline.advance_pwl_allocs",
             static_cast<double>(advance_allocs) / counted, "count");
  result.add("offline.breakpoints", breakpoints / calls, "count");
  result.add("online.decide_run_ns", decide.sum() / calls, "ns");
  result.add("online.decide_run_self_ns",
             (decide.sum() - advance.sum()) / calls, "ns");
  result.add("online.decide_run_allocs",
             static_cast<double>(decide_allocs) / counted, "count");
  result.add("fleet.offer_ns", offer.sum() / calls, "ns");
  result.add("fleet.offer_allocs",
             static_cast<double>(offer_allocs) / counted, "count");
  result.add("fleet.form_cache_hit_ratio", hit_ratio, "ratio");
  result.add("fleet.step_ns", step.sum() / calls, "ns");
  result.add("fleet.step_self_ns", (step.sum() - decide.sum()) / calls, "ns");
  result.add("core.snapshot_ns", snapshot.sum() / static_cast<double>(n),
             "ns");
  result.add("core.snapshot_bytes", snapshot_bytes / static_cast<double>(n),
             "bytes");
  result.add("core.store_put_ns", put.sum() / static_cast<double>(n), "ns");
  // Each level wraps the one below on identical inputs.
  result.check(advance.sum() <= decide.sum() && decide.sum() <= step.sum(),
               "ladder: advance_pwl <= decide_run <= step does not hold");
  return growths;
}

// ---------------------------------------------------------------------------
// fleet_serve inputs through the controller: tick self time and cadence
// ---------------------------------------------------------------------------

void tick_layer(const Options& opts, Result& result, SpanRecorder& spans) {
  constexpr int kTicks = 320;
  constexpr int kTickReps = 3;
  const FleetInputs in = fleet_serve::inputs(opts.seed);
  const std::size_t n = in.tenants.size();
  MinTimes self(kTicks);
  double checkpoints = 0.0, events = 0.0, deferrals = 0.0;
  for (int r = 0; r < kTickReps; ++r) {
    rs::fleet::FleetController fleet;  // 1 worker: steps run inline
    for (std::size_t i = 0; i < n; ++i) {
      fleet.add_tenant(in.config(i, 0, rs::fleet::Priority::kBatch));
    }
    std::vector<std::size_t> next(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (int k = 0; k < in.tenants[i].window; ++k) {
        fleet.offer(i, in.tenants[i].lambdas[next[i]++]);
      }
    }
    const auto offer_all = [&] {
      for (std::size_t i = 0; i < n; ++i) {
        fleet.offer(i, in.tenants[i].lambdas[next[i]++]);
      }
    };
    for (int k = 0; k < fleet_serve::kWarmTicks; ++k) {
      offer_all();
      fleet.tick();
    }
    const rs::fleet::FleetStats before = fleet.stats();
    const double events_before = static_cast<double>(
        fleet.events().size() + fleet.dropped_events());
    for (int k = 0; k < kTicks; ++k) {
      offer_all();
      const std::int64_t tick_ns =
          timed(spans, "fleet.tick", [&] { fleet.tick(); });
      double step_s = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        step_s += fleet.tenant(i).stats().last_step_seconds;
      }
      self.record(static_cast<std::size_t>(k),
                  tick_ns - static_cast<std::int64_t>(step_s * 1e9));
    }
    const rs::fleet::FleetStats after = fleet.stats();
    checkpoints = static_cast<double>(after.checkpoints - before.checkpoints);
    events = static_cast<double>(fleet.events().size() +
                                 fleet.dropped_events()) -
             events_before;
    deferrals = static_cast<double>(after.deferrals);
  }
  result.add("fleet.tick_self_ns",
             self.sum() / (static_cast<double>(kTicks) * n), "ns");
  result.check(self.sum() >= 0.0, "ladder: negative tick self time");
  result.add("fleet.checkpoints_per_tick", checkpoints / kTicks, "count");
  result.add("fleet.events_per_tick", events / kTicks, "count");
  result.add("fleet.deferrals", deferrals, "count");
}

// ---------------------------------------------------------------------------
// engine dispatch at roster size
// ---------------------------------------------------------------------------

void dispatch_layer(Result& result, SpanRecorder& spans) {
  constexpr std::size_t kRoster = 256;
  constexpr int kCalls = 1000;
  std::vector<double> seconds(kRoster);
  const auto measure = [&](std::size_t workers, const char* name) {
    rs::engine::SolverEngine::Options options;
    options.threads = workers;
    const rs::engine::SolverEngine engine(options);
    std::vector<double> ns;
    for (int c = 0; c < kCalls; ++c) {
      ns.push_back(static_cast<double>(timed(spans, name, [&] {
        engine.for_each_timed(kRoster, [](std::size_t) {}, seconds);
      })));
    }
    return median(ns);
  };
  result.add("engine.dispatch_1w_ns", measure(1, "engine.dispatch_1w"), "ns");
  result.add("engine.dispatch_ns", measure(2, "engine.dispatch_2w"), "ns");
}

// ---------------------------------------------------------------------------
// batch_solve inputs: dense build → dense advance / DP / LCP → engine.run
// ---------------------------------------------------------------------------

/// Returns the workspace-arena growths of its warm repetitions.
std::uint64_t batch_layers(const Options& opts, Result& result,
                           SpanRecorder& spans) {
  constexpr int kBatchReps = 3;
  const BatchInputs in = batch_solve::inputs(opts.seed, 1);
  const std::vector<rs::engine::SolveJob> jobs = in.jobs(0);
  const std::size_t n = in.instances.size();
  MinTimes build(n), adv(n), dp(n), dp_cost(n), lcp(n), solo(n);
  std::int64_t run_best = -1;
  double tables = 0.0;
  std::uint64_t engine_growths = 0, growths = 0;
  const rs::engine::SolverEngine engine(
      rs::engine::SolverEngine::Options{1, true});
  engine.run(jobs);  // warm the workspace arena
  for (int r = 0; r < kBatchReps; ++r) {
    const std::uint64_t growths_before = rs::util::Workspace::total_growths();
    for (std::size_t k = 0; k < n; ++k) {
      const rs::core::Problem& p = in.instances[k];
      std::optional<rs::core::DenseProblem> dense;
      const std::int64_t b = timed(spans, "core.dense_build", [&] {
        dense.emplace(p, rs::core::DenseProblem::Mode::kEager,
                      rs::core::DenseProblem::MinimizerCache::kOnDemand);
      });
      build.record(k, b);
      adv.record(k, timed(spans, "offline.advance_dense", [&] {
        WorkFunctionTracker t(p.max_servers(), p.beta(),
                              WorkFunctionTracker::Backend::kDense);
        for (int s = 1; s <= p.horizon(); ++s) t.advance(dense->row(s));
      }));
      const rs::offline::DpSolver solver;
      const std::int64_t a = timed(spans, "offline.dp_solve",
                                   [&] { solver.solve(*dense); });
      const std::int64_t c = timed(spans, "offline.dp_cost",
                                   [&] { solver.solve_cost(*dense); });
      const std::int64_t l = timed(spans, "online.run_lcp_dense", [&] {
        const rs::core::Schedule x = rs::online::run_lcp_dense(*dense);
        rs::core::total_cost(*dense, x);
      });
      dp.record(k, a);
      dp_cost.record(k, c);
      lcp.record(k, l);
      solo.record(k, b + a + c + l);
    }
    rs::engine::BatchResult batch;
    const std::int64_t ns =
        timed(spans, "engine.run", [&] { batch = engine.run(jobs); });
    if (run_best < 0 || ns < run_best) run_best = ns;
    tables = static_cast<double>(batch.stats.dense_tables_built);
    engine_growths += batch.stats.workspace_growths;
    result.check(batch.stats.failed_jobs == 0, "ladder: engine.run failed");
    if (r > 0) growths += rs::util::Workspace::total_growths() - growths_before;
  }
  const double per = static_cast<double>(n);
  const int horizon = in.instances[0].horizon();
  result.add("core.dense_build_us", build.sum() / per * 1e-3, "us");
  result.add("offline.advance_dense_ns", adv.sum() / (per * horizon), "ns");
  result.add("offline.dp_solve_us", dp.sum() / per * 1e-3, "us");
  result.add("offline.dp_cost_us", dp_cost.sum() / per * 1e-3, "us");
  result.add("online.run_lcp_dense_us", lcp.sum() / per * 1e-3, "us");
  // Not checked for sign, unlike the other self times: engine.run builds
  // all 16 tables before it solves any, while the solo path solves each
  // table while it is still in cache, so this is not a level wrapping the
  // same work.  It read from below 0 to +23 ms per batch with the load.
  result.add("engine.run_self_us",
             (static_cast<double>(run_best) - solo.sum()) * 1e-3, "us");
  result.add("engine.dense_tables_built", tables, "count");
  result.add("engine.workspace_growths", static_cast<double>(engine_growths),
             "count");
  return growths;
}

// ---------------------------------------------------------------------------
// whatif_repair inputs: rewind advance → clone / repair → what_if
// ---------------------------------------------------------------------------

void whatif_layers(const Options& opts, Result& result, SpanRecorder& spans) {
  using whatif_repair::kSlots;
  using whatif_repair::kWhatIfSlots;
  constexpr int kProbes = 300;
  constexpr int kSoloEvery = 25;  // probes checked against a fresh Lcp
  const FleetInputs in = whatif_repair::inputs(opts.seed);
  const std::size_t n = in.tenants.size();
  rs::fleet::SlotFormCache cache;
  std::vector<std::vector<std::shared_ptr<const rs::core::ConvexPwl>>> forms(
      n);
  for (std::size_t k = 0; k < n; ++k) {
    for (int s = 0; s < kSlots; ++s) {
      forms[k].push_back(cache.form_for(
          in.costs->at(in.tenants[k].lambdas[s]), in.tenants[k].m));
    }
  }

  MinTimes rewind(kSlots);
  for (int r = 0; r < kReps; ++r) {
    std::vector<WorkFunctionTracker> trackers;
    trackers.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      trackers.emplace_back(in.tenants[k].m, in.beta,
                            WorkFunctionTracker::Backend::kAuto);
      trackers.back().enable_rewind(kWhatIfSlots);
    }
    for (int s = 0; s < kSlots; ++s) {
      rewind.record(static_cast<std::size_t>(s),
                    timed(spans, "offline.advance_rewind", [&] {
                      for (std::size_t k = 0; k < n; ++k) {
                        trackers[k].advance(
                            *forms[k][static_cast<std::size_t>(s)]);
                      }
                    }));
    }
  }
  result.add("offline.advance_rewind_ns",
             rewind.sum() / (static_cast<double>(n) * kSlots), "ns");

  // Live Lcp sessions and fleet tenants fed the same kSlots slots.
  std::vector<std::unique_ptr<rs::online::Lcp>> lcps;
  std::vector<std::unique_ptr<rs::fleet::TenantSession>> sessions;
  rs::core::CheckpointStore store;
  for (std::size_t k = 0; k < n; ++k) {
    const TenantInput& t = in.tenants[k];
    lcps.push_back(std::make_unique<rs::online::Lcp>());
    lcps.back()->enable_what_if(kWhatIfSlots);
    lcps.back()->reset(rs::online::OnlineContext{t.m, in.beta});
    rs::fleet::TenantConfig config =
        in.config(k, kWhatIfSlots, rs::fleet::Priority::kInteractive);
    config.form_cache = &cache;
    sessions.push_back(
        std::make_unique<rs::fleet::TenantSession>(std::move(config), k));
    std::vector<int> d(1), lo(1), hi(1);
    for (int s = 0; s < kSlots; ++s) {
      const std::size_t slot = static_cast<std::size_t>(s);
      lcps.back()->decide_run(*forms[k][slot], 1, d, lo, hi);
      sessions.back()->offer(t.lambdas[slot]);
      sessions.back()->step(store);
    }
  }

  rs::util::Rng rng(derive_seed(opts.seed, 5));
  MinTimes clone(kProbes), repair(kProbes), what_if(kProbes);
  double repaired = 0.0, early = 0.0;
  for (int q = 0; q < kProbes; ++q) {
    const std::size_t k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const int slot =
        kSlots - static_cast<int>(rng.uniform_int(0, kWhatIfSlots - 1));
    const std::vector<double>& levels = in.tenants[k].levels;
    const double lambda = levels[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(levels.size()) - 1))];
    const rs::core::CostPtr cost = in.costs->at(lambda);
    const std::size_t unit = static_cast<std::size_t>(q);
    for (int r = 0; r < kReps; ++r) {
      std::optional<rs::fleet::WhatIfResult> answer;
      const auto probe = [&] {
        what_if.record(unit, timed(spans, "fleet.what_if", [&] {
          answer = sessions[k]->what_if(slot, lambda);
        }));
      };
      if (r % 2 == 1) probe();
      std::optional<WorkFunctionTracker> copy;
      clone.record(unit, timed(spans, "offline.clone", [&] {
        copy.emplace(lcps[k]->tracker()->clone());
      }));
      WorkFunctionTracker::Repair rep;
      repair.record(unit, timed(spans, "offline.repair",
                                [&] { rep = copy->repair_from(slot, *cost); }));
      if (r % 2 == 0) probe();
      if (r == 0) {
        repaired += rep.slots_replayed;
        early += rep.early_exit ? 1.0 : 0.0;
        result.check(answer && answer->x_lower == copy->x_lower() &&
                         answer->x_upper == copy->x_upper() &&
                         answer->slots_repaired == rep.slots_replayed,
                     "ladder: what_if differs from clone + repair_from");
      }
    }
    if (q % kSoloEvery == 0) {
      // The answer must equal a from-scratch Lcp over the first kSlots
      // slots with the probed slot's λ replaced.
      const std::optional<rs::fleet::WhatIfResult> answer =
          sessions[k]->what_if(slot, lambda);
      const TenantInput& t = in.tenants[k];
      rs::online::Lcp fresh;
      fresh.reset(rs::online::OnlineContext{t.m, in.beta});
      for (int s = 1; s <= kSlots; ++s) {
        fresh.decide(s == slot ? cost
                               : in.costs->at(t.lambdas[
                                     static_cast<std::size_t>(s - 1)]),
                     {});
      }
      result.check(answer && answer->x_lower == fresh.last_lower() &&
                       answer->x_upper == fresh.last_upper() &&
                       answer->projected_state == fresh.current_state(),
                   "ladder: what_if probe " + std::to_string(q) +
                       " differs from a from-scratch Lcp");
    }
  }
  const double p = kProbes;
  result.add("offline.clone_us", clone.sum() / p * 1e-3, "us");
  result.add("offline.repair_us", repair.sum() / p * 1e-3, "us");
  result.add("offline.slots_repaired", repaired / p, "count");
  result.add("offline.early_exit_ratio", early / p, "ratio");
  result.add("fleet.whatif_self_us",
             (what_if.sum() - clone.sum() - repair.sum()) / p * 1e-3, "us");
  result.check(what_if.sum() >= clone.sum() + repair.sum(),
               "ladder: negative what_if self time");
}

}  // namespace

void run_ladder(const Options& opts, Result& result, SpanRecorder& spans) {
  const SpanRecorder::Scope root(&spans, "ladder");
  {
    const SpanRecorder::Scope s(&spans, "ladder.engine");
    dispatch_layer(result, spans);
  }
  std::uint64_t growths = 0;
  {
    const SpanRecorder::Scope s(&spans, "ladder.fleet");
    growths += fleet_layers(opts, result, spans);
    tick_layer(opts, result, spans);
  }
  {
    const SpanRecorder::Scope s(&spans, "ladder.batch");
    growths += batch_layers(opts, result, spans);
  }
  result.add("util.workspace_growths", static_cast<double>(growths), "count");
  {
    const SpanRecorder::Scope s(&spans, "ladder.whatif");
    whatif_layers(opts, result, spans);
  }
}

}  // namespace perfbench
