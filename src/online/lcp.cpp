#include "online/lcp.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "online/lcp_window.hpp"
#include "util/audit.hpp"
#include "util/math_util.hpp"
#include "util/workspace.hpp"

namespace rs::online {

namespace {

void check_session_bounds(int value, int m, const char* what) {
  if (value < 0 || value > m) {
    throw rs::core::CheckpointFormatError(
        std::string("session checkpoint: ") + what + " outside [0, m]");
  }
}

}  // namespace

Lcp::Lcp(Backend backend, int window)
    : backend_(backend), window_(static_cast<std::size_t>(window)) {
  if (window < 0) {
    throw std::invalid_argument("Lcp: window must be >= 0");
  }
}

void Lcp::reset(const OnlineContext& context) {
  context_ = context;
  tracker_.emplace(context.m, context.beta, backend_);
  if (what_if_capacity_ > 0) tracker_->enable_rewind(what_if_capacity_);
  form_cache_.clear();
  current_ = 0;
  last_lower_ = 0;
  last_upper_ = 0;
}

void Lcp::enable_what_if(int capacity) {
  if (capacity < 0) {
    throw std::invalid_argument("Lcp::enable_what_if: negative capacity");
  }
  what_if_capacity_ = capacity;
  if (!tracker_.has_value()) return;
  if (capacity > 0) {
    tracker_->enable_rewind(capacity);
  } else {
    tracker_->disable_rewind();
  }
}

bool Lcp::pwl_path_open() const {
  return tracker_.has_value() && backend_ != Backend::kDense &&
         !tracker_->using_dense();
}

int Lcp::decide(const rs::core::CostPtr& f,
                std::span<const rs::core::CostPtr> lookahead) {
  if (window_ > 0) return decide_window(f, lookahead);
  tracker_->advance(*f);
  last_lower_ = tracker_->x_lower();
  last_upper_ = tracker_->x_upper();
  current_ = rs::util::project(current_, last_lower_, last_upper_);
  RS_AUDIT(rs::util::audit::require(
      last_lower_ <= current_ && current_ <= last_upper_,
      "lcp-projection-in-corridor", "Lcp::decide"));
  return current_;
}

int Lcp::decide(const rs::core::CostPtr& f,
                std::span<const rs::core::CostPtr> lookahead,
                const rs::core::ConvexPwl* form,
                std::span<const rs::core::ConvexPwl* const> lookahead_forms) {
  if (lookahead_forms.size() != lookahead.size()) {
    throw std::invalid_argument("Lcp::decide: one form per lookahead cost");
  }
  lookahead_forms =
      lookahead_forms.first(std::min(lookahead_forms.size(), window_));
  const bool all_forms =
      form != nullptr &&
      std::find(lookahead_forms.begin(), lookahead_forms.end(), nullptr) ==
          lookahead_forms.end();
  if (window_ == 0 || !all_forms || !pwl_path_open()) {
    return decide(f, lookahead);
  }
  return decide_window_pwl(*form, lookahead_forms);
}

void Lcp::check_run_args(int count, std::span<const int> decisions,
                         std::span<const int> lower,
                         std::span<const int> upper) const {
  if (count < 0) {
    throw std::invalid_argument("Lcp::decide_run: negative count");
  }
  const std::size_t n = static_cast<std::size_t>(count);
  if (decisions.size() < n || lower.size() < n || upper.size() < n) {
    throw std::invalid_argument("Lcp::decide_run: output spans too small");
  }
  if (!tracker_.has_value()) {
    throw std::logic_error("Lcp::decide_run: reset() the session first");
  }
  if (window_ > 0) {
    throw std::logic_error(
        "Lcp::decide_run: a windowed session decides slot by slot");
  }
}

void Lcp::project_run(int count, std::span<int> decisions,
                      std::span<int> lower, std::span<int> upper) {
  for (int i = 0; i < count; ++i) {
    current_ = rs::util::project(current_, lower[static_cast<std::size_t>(i)],
                                 upper[static_cast<std::size_t>(i)]);
    decisions[static_cast<std::size_t>(i)] = current_;
  }
  last_lower_ = lower[static_cast<std::size_t>(count) - 1];
  last_upper_ = upper[static_cast<std::size_t>(count) - 1];
  RS_AUDIT(rs::util::audit::require(
      last_lower_ <= current_ && current_ <= last_upper_,
      "lcp-projection-in-corridor", "Lcp::project_run"));
}

void Lcp::decide_run(const rs::core::CostFunction& f, int count,
                     std::span<int> decisions, std::span<int> lower,
                     std::span<int> upper) {
  check_run_args(count, decisions, lower, upper);
  if (count == 0) return;
  tracker_->advance_repeated(f, count, lower, upper);
  project_run(count, decisions, lower, upper);
}

void Lcp::decide_run(const rs::core::ConvexPwl& f, int count,
                     std::span<int> decisions, std::span<int> lower,
                     std::span<int> upper) {
  check_run_args(count, decisions, lower, upper);
  if (count == 0) return;
  tracker_->advance_repeated(f, count, lower, upper);
  project_run(count, decisions, lower, upper);
}

bool Lcp::degrade_to_dense() {
  if (!tracker_.has_value() || backend_ == Backend::kPwl) return false;
  tracker_->ensure_dense_backend();
  return true;
}

// ---------------------------------------------------------------------------
// The windowed step (w > 0)
// ---------------------------------------------------------------------------

bool Lcp::slide_forms(const rs::core::CostPtr& f,
                      std::span<const rs::core::CostPtr> lookahead) {
  const int m = context_.m;
  const int budget = backend_ == Backend::kPwl
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

int Lcp::project_window(int lower, int upper) {
  last_lower_ = lower;
  last_upper_ = upper;
  current_ = rs::util::project(current_, std::min(lower, upper),
                               std::max(lower, upper));
  return current_;
}

int Lcp::decide_window_pwl(
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
  if (sum_lower_.is_infinite()) return project_window(0, m);  // dense (0, m)
  return project_window(sum_lower_.argmin().lo,   // smallest minimizer, <
                        sum_upper_.argmin().hi);  // largest minimizer, <=
}

int Lcp::decide_window(const rs::core::CostPtr& f,
                       std::span<const rs::core::CostPtr> lookahead) {
  const int m = context_.m;
  lookahead = lookahead.first(std::min(lookahead.size(), window_));

  // PWL fast path: usable while the tracker has not fallen back to dense
  // and the revealed cost plus the whole lookahead convert compactly.  The
  // per-step cost is then independent of m.
  if (pwl_path_open()) {
    if (slide_forms(f, lookahead)) {
      window_scratch_.clear();
      for (std::size_t j = 1; j < form_cache_.size(); ++j) {
        window_scratch_.push_back(&form_cache_[j].second);
      }
      return decide_window_pwl(form_cache_.front().second, window_scratch_);
    }
    // Not compactly convertible.  A forced-PWL run cannot proceed — name
    // the cause (matching the tracker contract) rather than tripping the
    // tracker's internal forced-PWL invariant below.
    if (backend_ == Backend::kPwl) {
      throw std::invalid_argument(
          "Lcp: revealed cost or lookahead has no convex-PWL form "
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
  double best_lower = rs::util::kInf;
  double best_upper = rs::util::kInf;
  for (int x = 0; x <= m; ++x) {
    const std::size_t i = static_cast<std::size_t>(x);
    const double l = tracker_->chat_lower(x) + d_lower[i];
    const double u = tracker_->chat_upper(x) + d_upper[i];
    if (l < best_lower) {
      best_lower = l;
      lower = x;
    }
    if (u <= best_upper) {
      best_upper = u;
      upper = x;
    }
  }
  return project_window(lower, upper);
}

// ---------------------------------------------------------------------------
// Checkpoints: kind 0x02 at w = 0, kind 0x03 (with the context) at w > 0
// ---------------------------------------------------------------------------

std::uint32_t Lcp::checkpoint_kind() const noexcept {
  return window_ == 0 ? rs::core::kLcpCheckpointKind
                      : rs::core::kWindowedLcpCheckpointKind;
}

std::vector<std::uint8_t> Lcp::snapshot() const {
  rs::core::CheckpointWriter w;
  write_snapshot_payload(w);
  return std::move(w).seal(checkpoint_kind());
}

void Lcp::write_snapshot(rs::core::CheckpointWriter& w) const {
  const std::size_t mark = w.begin_nested(checkpoint_kind());
  write_snapshot_payload(w);
  w.end_nested(mark);
}

void Lcp::write_snapshot_payload(rs::core::CheckpointWriter& w) const {
  w.u8(static_cast<std::uint8_t>(backend_));
  if (window_ > 0) {
    w.i32(context_.m);
    w.f64(context_.beta);
  }
  w.i32(current_);
  w.i32(last_lower_);
  w.i32(last_upper_);
  w.u8(tracker_.has_value() ? 1 : 0);
  if (tracker_.has_value()) tracker_->write_snapshot(w);
}

void Lcp::restore(const OnlineContext& context,
                  std::span<const std::uint8_t> bytes) {
  using rs::core::CheckpointFormatError;
  using rs::core::CheckpointMismatchError;
  rs::core::CheckpointReader r(bytes, checkpoint_kind());
  const std::uint8_t backend_tag = r.u8();
  OnlineContext snapshotted = context;
  if (window_ > 0) {
    snapshotted.m = r.i32();
    snapshotted.beta = r.f64();
  }
  const std::int32_t current = r.i32();
  const std::int32_t last_lower = r.i32();
  const std::int32_t last_upper = r.i32();
  const std::uint8_t has_tracker = r.u8();
  if (backend_tag > static_cast<std::uint8_t>(Backend::kPwl)) {
    throw CheckpointFormatError("session checkpoint: invalid backend tag");
  }
  if (has_tracker > 1) {
    throw CheckpointFormatError("session checkpoint: invalid tracker flag");
  }
  if (static_cast<Backend>(backend_tag) != backend_) {
    throw CheckpointMismatchError(
        "session checkpoint: snapshot backend does not match this session");
  }
  if (snapshotted.m != context.m || snapshotted.beta != context.beta) {
    throw CheckpointMismatchError(
        "session checkpoint: snapshot (m, beta) does not match context");
  }
  check_session_bounds(current, context.m, "current state");
  check_session_bounds(last_lower, context.m, "last lower bound");
  check_session_bounds(last_upper, context.m, "last upper bound");

  // Fully decode (and validate) the nested tracker before mutating the
  // session, so a bad checkpoint leaves this object untouched.
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
  // Rewind state is never checkpointed (the wire format is unchanged);
  // restart the what-if window at the restored state.
  if (what_if_capacity_ > 0) tracker_->enable_rewind(what_if_capacity_);
  form_cache_.clear();
  current_ = current;
  last_lower_ = last_lower;
  last_upper_ = last_upper;
}

rs::core::Schedule run_lcp_dense(const rs::core::DenseProblem& dense) {
  rs::offline::WorkFunctionTracker tracker(
      dense.max_servers(), dense.beta(),
      rs::offline::WorkFunctionTracker::Backend::kDense);
  rs::core::Schedule schedule;
  schedule.reserve(static_cast<std::size_t>(dense.horizon()));
  int current = 0;
  for (int t = 1; t <= dense.horizon(); ++t) {
    tracker.advance(dense.row(t));
    current = rs::util::project(current, tracker.x_lower(), tracker.x_upper());
    schedule.push_back(current);
  }
  return schedule;
}

rs::core::Schedule run_lcp_pwl(const rs::core::PwlProblem& pwl) {
  rs::offline::WorkFunctionTracker tracker(
      pwl.max_servers(), pwl.beta(),
      rs::offline::WorkFunctionTracker::Backend::kPwl);
  rs::core::Schedule schedule;
  schedule.reserve(static_cast<std::size_t>(pwl.horizon()));
  int current = 0;
  for (int t = 1; t <= pwl.horizon(); ++t) {
    tracker.advance(pwl.form(t));
    current = rs::util::project(current, tracker.x_lower(), tracker.x_upper());
    schedule.push_back(current);
  }
  return schedule;
}

}  // namespace rs::online
