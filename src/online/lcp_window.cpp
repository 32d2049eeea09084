// rs-lint: minmax-audited — the windowed work-function folds are approved
// branch-free kernels: a NaN slot cost is rejected upstream (tenant ingest
// probes, engine NaN classification) before it can reach these labels, and
// the RIGHTSIZER_AUDIT tracker checks pin the labels NaN-free
// (DESIGN.md §13).
#include "online/lcp_window.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "util/math_util.hpp"
#include "util/workspace.hpp"

namespace rs::online {

using rs::util::kInf;

void completion_costs(std::span<const rs::core::CostPtr> window, double beta,
                      bool charge_up, std::span<double> d) {
  // Backward DP: D_j(x) = min_{x'} [ switch(x -> x') + f_j(x') + D_{j+1}(x') ]
  // with D_{end}(x) = 0.  switch(x -> x') = β(x'−x)⁺ under L-accounting and
  // β(x−x')⁺ under U-accounting.  Labels are extended reals in [0, +inf],
  // so the f_j addition needs no infinity guard.
  const int m = static_cast<int>(d.size()) - 1;
  std::fill(d.begin(), d.end(), 0.0);
  rs::util::Workspace& workspace = rs::util::this_thread_workspace();
  auto g = workspace.borrow<double>(d.size());
  auto frow = workspace.borrow<double>(d.size());
  for (std::size_t j = window.size(); j-- > 0;) {
    window[j]->eval_row(m, frow.span());  // one virtual call per window row
    for (int x = 0; x <= m; ++x) {
      g[static_cast<std::size_t>(x)] =
          frow[static_cast<std::size_t>(x)] + d[static_cast<std::size_t>(x)];
    }
    if (charge_up) {
      // D(x) = min( min_{x'>=x} g(x') + β(x'−x), min_{x'<=x} g(x') ).
      double best_shifted = kInf;  // min g(x') + βx'
      for (int x = m; x >= 0; --x) {
        best_shifted =
            std::min(best_shifted, g[static_cast<std::size_t>(x)] + beta * x);
        d[static_cast<std::size_t>(x)] = best_shifted - beta * x;
      }
      double prefix = kInf;
      for (int x = 0; x <= m; ++x) {
        prefix = std::min(prefix, g[static_cast<std::size_t>(x)]);
        d[static_cast<std::size_t>(x)] =
            std::min(d[static_cast<std::size_t>(x)], prefix);
      }
    } else {
      // D(x) = min( min_{x'<=x} g(x') + β(x−x'), min_{x'>=x} g(x') ).
      double best_shifted = kInf;  // min g(x') − βx'
      for (int x = 0; x <= m; ++x) {
        best_shifted =
            std::min(best_shifted, g[static_cast<std::size_t>(x)] - beta * x);
        d[static_cast<std::size_t>(x)] = best_shifted + beta * x;
      }
      double suffix = kInf;
      for (int x = m; x >= 0; --x) {
        suffix = std::min(suffix, g[static_cast<std::size_t>(x)]);
        d[static_cast<std::size_t>(x)] =
            std::min(d[static_cast<std::size_t>(x)], suffix);
      }
    }
  }
}

std::vector<double> completion_costs(
    std::span<const rs::core::CostPtr> window, int m, double beta,
    bool charge_up) {
  std::vector<double> d(static_cast<std::size_t>(m) + 1);
  completion_costs(window, beta, charge_up, d);
  return d;
}

void completion_costs_pwl(std::span<const rs::core::ConvexPwl* const> window,
                          int m, double beta, bool charge_up,
                          rs::core::ConvexPwl& d) {
  // Same recursion as the dense pass (add f_j, then relax), with the relax
  // realized as a slope clip: under L-accounting (charge_up) future
  // up-moves cost β, i.e. slopes below −β are raised onto the −β tangent
  // and the increasing part is flattened — the charge-down clip; the
  // U-accounting window mirrors it.  Copy-assigning the zero function (not
  // moving a temporary in) keeps d's array and its capacity.
  const rs::core::ConvexPwl zero = rs::core::ConvexPwl::constant(0, m, 0.0);
  d = zero;
  for (std::size_t j = window.size(); j-- > 0;) {
    d.add(*window[j]);
    if (charge_up) {
      d.relax_charge_down(beta, 0, m);
    } else {
      d.relax_charge_up(beta, 0, m);
    }
  }
}

rs::core::ConvexPwl completion_costs_pwl(
    std::span<const rs::core::ConvexPwl> window, int m, double beta,
    bool charge_up) {
  std::vector<const rs::core::ConvexPwl*> rows;
  rows.reserve(window.size());
  for (const rs::core::ConvexPwl& f : window) rows.push_back(&f);
  rs::core::ConvexPwl d;
  completion_costs_pwl(rows, m, beta, charge_up, d);
  return d;
}

void WindowedLcp::reset(const OnlineContext& context) {
  context_ = context;
  tracker_.emplace(context.m, context.beta, backend_);
  form_cache_.clear();
  current_ = 0;
  last_lower_ = 0;
  last_upper_ = 0;
}

std::vector<std::uint8_t> WindowedLcp::snapshot() const {
  rs::core::CheckpointWriter w;
  write_snapshot_payload(w);
  return std::move(w).seal(rs::core::kWindowedLcpCheckpointKind);
}

void WindowedLcp::write_snapshot(rs::core::CheckpointWriter& w) const {
  const std::size_t mark =
      w.begin_nested(rs::core::kWindowedLcpCheckpointKind);
  write_snapshot_payload(w);
  w.end_nested(mark);
}

void WindowedLcp::write_snapshot_payload(rs::core::CheckpointWriter& w) const {
  w.u8(static_cast<std::uint8_t>(backend_));
  w.i32(context_.m);
  w.f64(context_.beta);
  w.i32(current_);
  w.i32(last_lower_);
  w.i32(last_upper_);
  w.u8(tracker_.has_value() ? 1 : 0);
  if (tracker_.has_value()) tracker_->write_snapshot(w);
}

void WindowedLcp::restore(const OnlineContext& context,
                          std::span<const std::uint8_t> bytes) {
  using rs::core::CheckpointFormatError;
  using rs::core::CheckpointMismatchError;
  rs::core::CheckpointReader r(bytes, rs::core::kWindowedLcpCheckpointKind);
  const std::uint8_t backend_tag = r.u8();
  const std::int32_t m = r.i32();
  const double beta = r.f64();
  const std::int32_t current = r.i32();
  const std::int32_t last_lower = r.i32();
  const std::int32_t last_upper = r.i32();
  const std::uint8_t has_tracker = r.u8();
  if (backend_tag >
      static_cast<std::uint8_t>(
          rs::offline::WorkFunctionTracker::Backend::kPwl)) {
    throw CheckpointFormatError("session checkpoint: invalid backend tag");
  }
  if (has_tracker > 1) {
    throw CheckpointFormatError("session checkpoint: invalid tracker flag");
  }
  if (static_cast<rs::offline::WorkFunctionTracker::Backend>(backend_tag) !=
      backend_) {
    throw CheckpointMismatchError(
        "session checkpoint: snapshot backend does not match this session");
  }
  if (m != context.m || beta != context.beta) {
    throw CheckpointMismatchError(
        "session checkpoint: snapshot (m, beta) does not match context");
  }
  const auto check_bounds = [&](std::int32_t value, const char* what) {
    if (value < 0 || value > m) {
      throw CheckpointFormatError(std::string("session checkpoint: ") + what +
                                  " outside [0, m]");
    }
  };
  check_bounds(current, "current state");
  check_bounds(last_lower, "last lower bound");
  check_bounds(last_upper, "last upper bound");

  // Fully decode the nested tracker before mutating the session.
  std::optional<rs::offline::WorkFunctionTracker> tracker;
  if (has_tracker == 1) {
    const std::uint64_t nested_size = r.u64();
    const std::vector<std::uint8_t> nested =
        r.bytes(static_cast<std::size_t>(nested_size));
    tracker.emplace(rs::offline::WorkFunctionTracker::restore(nested));
    if (tracker->max_servers() != context.m ||
        tracker->beta() != context.beta) {
      throw CheckpointMismatchError(
          "session checkpoint: tracker (m, beta) does not match context");
    }
  }
  r.finish();

  context_ = context;
  if (tracker.has_value()) {
    tracker_ = std::move(tracker);
  } else {
    tracker_.emplace(context.m, context.beta, backend_);
  }
  form_cache_.clear();
  current_ = current;
  last_lower_ = last_lower;
  last_upper_ = last_upper;
}

bool WindowedLcp::pwl_path_open() const {
  return backend_ != rs::offline::WorkFunctionTracker::Backend::kDense &&
         (tracker_->tau() == 0 || tracker_->using_pwl());
}

bool WindowedLcp::slide_forms(const rs::core::CostPtr& f,
                              std::span<const rs::core::CostPtr> lookahead) {
  const int m = context_.m;
  const int budget =
      backend_ == rs::offline::WorkFunctionTracker::Backend::kPwl
          ? rs::core::kUnboundedBreakpoints
          : rs::core::compact_pwl_budget_for(m);
  // The previous step cached the forms of [f_prev, lookahead_prev...]; this
  // step's f is the previous lookahead's head and its lookahead overlaps
  // the previous one shifted by one.  Each needed cost takes the next
  // matching entry at or after the read cursor (entries skipped on the way
  // are dropped) and moves it down to its slot; once a cost misses, every
  // remaining entry is stale and the rest convert.  So a sliding replay
  // converts only the newly revealed window tail; non-sliding callers
  // simply miss — correctness never depends on the cache.
  const std::size_t cached = form_cache_.size();
  std::size_t read = 0;
  std::size_t write = 0;
  for (std::size_t j = 0; j <= lookahead.size(); ++j) {
    const rs::core::CostPtr& g = j == 0 ? f : lookahead[j - 1];
    std::size_t hit = read;
    while (hit < cached && form_cache_[hit].first != g) ++hit;
    if (hit < cached) {
      if (hit != write) form_cache_[write] = std::move(form_cache_[hit]);
      read = hit + 1;
    } else {
      read = cached;
      std::optional<rs::core::ConvexPwl> form = g->as_convex_pwl(m, budget);
      if (!form) {
        form_cache_.clear();
        return false;
      }
      if (write < cached) {
        form_cache_[write] = {g, std::move(*form)};
      } else {
        form_cache_.emplace_back(g, std::move(*form));
      }
    }
    ++write;
  }
  form_cache_.resize(write);
  return true;
}

int WindowedLcp::decide_pwl(
    const rs::core::ConvexPwl& form,
    std::span<const rs::core::ConvexPwl* const> window) {
  const int m = context_.m;
  tracker_->advance(form);
  completion_costs_pwl(window, m, context_.beta, /*charge_up=*/true, d_lower_);
  completion_costs_pwl(window, m, context_.beta, /*charge_up=*/false,
                       d_upper_);
  sum_lower_ = tracker_->chat_lower_pwl();
  sum_lower_.add(d_lower_);
  sum_upper_ = tracker_->chat_upper_pwl();
  sum_upper_.add(d_upper_);
  int lower = 0;
  int upper = m;  // all-infinite sums: the dense scan's (0, m)
  if (!sum_lower_.is_infinite()) {
    lower = sum_lower_.argmin().lo;  // smallest minimizer, strict <
    upper = sum_upper_.argmin().hi;  // largest minimizer, <=
  }
  last_lower_ = lower;
  last_upper_ = upper;
  const int lo = std::min(lower, upper);
  const int hi = std::max(lower, upper);
  current_ = rs::util::project(current_, lo, hi);
  return current_;
}

int WindowedLcp::decide(
    const rs::core::CostPtr& f, std::span<const rs::core::CostPtr> lookahead,
    const rs::core::ConvexPwl* form,
    std::span<const rs::core::ConvexPwl* const> lookahead_forms) {
  if (lookahead_forms.size() != lookahead.size()) {
    throw std::invalid_argument(
        "WindowedLcp::decide: one form per lookahead cost");
  }
  const bool all_forms =
      form != nullptr &&
      std::find(lookahead_forms.begin(), lookahead_forms.end(), nullptr) ==
          lookahead_forms.end();
  if (all_forms && pwl_path_open()) return decide_pwl(*form, lookahead_forms);
  return decide(f, lookahead);
}

int WindowedLcp::decide(const rs::core::CostPtr& f,
                        std::span<const rs::core::CostPtr> lookahead) {
  const int m = context_.m;

  // PWL fast path: usable while the tracker has not fallen back to dense
  // and the revealed cost plus the whole lookahead convert compactly.  The
  // per-step cost is then independent of m.
  if (pwl_path_open()) {
    if (slide_forms(f, lookahead)) {
      window_scratch_.clear();
      for (std::size_t j = 1; j < form_cache_.size(); ++j) {
        window_scratch_.push_back(&form_cache_[j].second);
      }
      return decide_pwl(form_cache_.front().second, window_scratch_);
    }
    // Not compactly convertible.  A forced-PWL run cannot proceed — name
    // the cause (matching the Lcp/tracker contract) rather than tripping
    // the tracker's internal forced-PWL invariant below.
    if (backend_ == rs::offline::WorkFunctionTracker::Backend::kPwl) {
      throw std::invalid_argument(
          "WindowedLcp: revealed cost or lookahead has no convex-PWL form "
          "(forced-PWL backend)");
    }
    // Latch the dense backend so every later per-x query below stays O(1);
    // the PWL path (and with it the form cache) is never revisited.
    tracker_->ensure_dense_backend();
  }

  tracker_->advance(*f);

  const std::size_t width = static_cast<std::size_t>(m) + 1;
  rs::util::Workspace& workspace = rs::util::this_thread_workspace();
  auto d_lower = workspace.borrow<double>(width);
  auto d_upper = workspace.borrow<double>(width);
  completion_costs(lookahead, context_.beta, /*charge_up=*/true,
                   d_lower.span());
  completion_costs(lookahead, context_.beta, /*charge_up=*/false,
                   d_upper.span());

  // Smallest minimizer of Ĉ^L_τ + D^L; largest minimizer of Ĉ^U_τ + D^U.
  int lower = 0;
  int upper = 0;
  double best_lower = kInf;
  double best_upper = kInf;
  for (int x = 0; x <= m; ++x) {
    const double l = tracker_->chat_lower(x) + d_lower[static_cast<std::size_t>(x)];
    const double u = tracker_->chat_upper(x) + d_upper[static_cast<std::size_t>(x)];
    if (l < best_lower) {
      best_lower = l;
      lower = x;
    }
    if (u <= best_upper) {
      best_upper = u;
      upper = x;
    }
  }
  last_lower_ = lower;
  last_upper_ = upper;
  // With predictions the corridor may inverte on pathological ties; projecting
  // into [min, max] keeps the decision well-defined.
  const int lo = std::min(lower, upper);
  const int hi = std::max(lower, upper);
  current_ = rs::util::project(current_, lo, hi);
  return current_;
}

}  // namespace rs::online
