// rs-lint: minmax-audited — the advance/relax label folds are approved
// branch-free kernels: a NaN slot cost is classified downstream (solver
// poison accumulators, engine NaN demotion, tenant ingest probes), and the
// RIGHTSIZER_AUDIT labels-nan-free check pins the labels themselves
// (DESIGN.md §13).
#include "offline/work_function.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "util/audit.hpp"
#include "util/math_util.hpp"

namespace rs::offline {

using rs::core::ConvexPwl;
using rs::util::kInf;

WorkFunctionTracker::WorkFunctionTracker(int m, double beta, Backend backend)
    : m_(m), beta_(beta), backend_(backend) {
  if (m < 0) throw std::invalid_argument("WorkFunctionTracker: m < 0");
  if (!(beta > 0.0)) {
    throw std::invalid_argument("WorkFunctionTracker: beta must be > 0");
  }
  // τ = 0 state encodes x_0 = 0: reaching x already "costs" the pending
  // power-up βx under L-accounting and nothing under U-accounting; those
  // charges materialize on the first advance through the relax step, so the
  // initial work functions are 0 at state 0 and +inf elsewhere.  Backend
  // storage is created lazily: the PWL pair is two empty point functions,
  // the dense rows are borrowed from the thread workspace only if the
  // dense backend is ever engaged.
  pwl_l_ = ConvexPwl::point(0, 0.0);
  pwl_u_ = ConvexPwl::point(0, 0.0);
  if (backend != Backend::kDense) {
    // Size the Ĉ pair for the compact budget up front: the live K stays of
    // the order of one slot's breakpoints, so even a cold tracker's PWL
    // advances touch no heap.
    const auto budget =
        static_cast<std::size_t>(rs::core::compact_pwl_budget_for(m));
    pwl_l_.reserve(budget);
    pwl_u_.reserve(budget);
  }
}

void WorkFunctionTracker::init_dense() {
  const std::size_t width = static_cast<std::size_t>(m_) + 1;
  rs::util::Workspace& workspace = rs::util::this_thread_workspace();
  chat_l_ = workspace.borrow<double>(width);
  chat_u_ = workspace.borrow<double>(width);
  scratch_ = workspace.borrow<double>(width);
  if (tau_ == 0) {
    std::fill(chat_l_.begin(), chat_l_.end(), kInf);
    std::fill(chat_u_.begin(), chat_u_.end(), kInf);
    chat_l_[0] = 0.0;
    chat_u_[0] = 0.0;
  } else {
    // Mid-run fallback: materialize the PWL pair into label rows.  Values
    // agree with an all-dense run up to FP association order (exactly on
    // integer instances); see DESIGN.md §8.
    pwl_l_.materialize(m_, chat_l_.span());
    pwl_u_.materialize(m_, chat_u_.span());
  }
  pwl_l_ = ConvexPwl::infinite();
  pwl_u_ = ConvexPwl::infinite();
  mode_ = Mode::kDense;
}

void WorkFunctionTracker::ensure_dense_backend() {
  if (mode_ == Mode::kDense) return;
  if (backend_ == Backend::kPwl) {
    throw std::logic_error(
        "WorkFunctionTracker: dense backend requested on a forced-PWL "
        "tracker");
  }
  init_dense();
  // An external mode switch is not an advance and cannot be replayed, so
  // the history before it is no longer reconstructible: restart the rewind
  // window from the freshly materialized state.
  if (rewind_enabled_ && !rewind_replaying_) rewind_reset_base();
}

void WorkFunctionTracker::advance(const rs::core::CostFunction& f) {
  if (mode_ != Mode::kDense) {
    const int budget = backend_ == Backend::kPwl
                           ? rs::core::kUnboundedBreakpoints
                           : rs::core::compact_pwl_budget_for(m_);
    if (backend_ != Backend::kDense) {
      if (std::optional<ConvexPwl> form = f.as_convex_pwl(m_, budget)) {
        advance_pwl(*form);
        if (rewind_enabled_ && !rewind_replaying_) {
          rewind_record(StoredInput{false, std::move(*form), {}}, 1);
        }
        return;
      }
      if (backend_ == Backend::kPwl) {
        throw std::invalid_argument(
            "WorkFunctionTracker: cost function has no compact convex-PWL "
            "form (forced-PWL backend)");
      }
    }
    init_dense();
  }
  f.eval_row(m_, scratch_.span());
  advance_dense(std::span<const double>(scratch_.span()));
  if (rewind_enabled_ && !rewind_replaying_) {
    rewind_record(
        StoredInput{true, {},
                    std::vector<double>(scratch_.begin(), scratch_.end())},
        1);
  }
}

void WorkFunctionTracker::advance(const rs::core::ConvexPwl& f) {
  if (mode_ != Mode::kDense) {
    if (backend_ == Backend::kDense) {
      init_dense();
    } else {
      advance_pwl(f);
      if (rewind_enabled_ && !rewind_replaying_) {
        rewind_record(StoredInput{false, f, {}}, 1);
      }
      return;
    }
  }
  f.materialize(m_, scratch_.span());
  advance_dense(std::span<const double>(scratch_.span()));
  if (rewind_enabled_ && !rewind_replaying_) {
    // Record the materialized row, not the form: the recorded kind mirrors
    // the executed backend path, which is what makes the edit-kind check in
    // repair_impl equivalent to backend-trajectory preservation.
    rewind_record(
        StoredInput{true, {},
                    std::vector<double>(scratch_.begin(), scratch_.end())},
        1);
  }
}

void WorkFunctionTracker::advance(const std::vector<double>& values) {
  advance(std::span<const double>(values));
}

void WorkFunctionTracker::advance(std::span<const double> values) {
  if (static_cast<int>(values.size()) != m_ + 1) {
    throw std::invalid_argument("WorkFunctionTracker::advance: need m+1 values");
  }
  if (mode_ != Mode::kDense) {
    if (backend_ == Backend::kPwl) {
      throw std::logic_error(
          "WorkFunctionTracker: raw value rows require the dense backend");
    }
    init_dense();
  }
  advance_dense(values);
  if (rewind_enabled_ && !rewind_replaying_) {
    rewind_record(
        StoredInput{true, {}, std::vector<double>(values.begin(), values.end())},
        1);
  }
}

namespace {

void check_repeat_args(int count, std::span<const int> xl,
                       std::span<const int> xu) {
  if (count < 0) {
    throw std::invalid_argument("advance_repeated: count < 0");
  }
  if (xl.size() < static_cast<std::size_t>(count) ||
      xu.size() < static_cast<std::size_t>(count)) {
    throw std::invalid_argument("advance_repeated: bound spans too short");
  }
}

}  // namespace

void WorkFunctionTracker::advance_repeated(const rs::core::CostFunction& f,
                                           int count, std::span<int> xl,
                                           std::span<int> xu) {
  check_repeat_args(count, xl, xu);
  if (count == 0) return;
  if (mode_ != Mode::kDense) {
    const int budget = backend_ == Backend::kPwl
                           ? rs::core::kUnboundedBreakpoints
                           : rs::core::compact_pwl_budget_for(m_);
    if (backend_ != Backend::kDense) {
      if (std::optional<ConvexPwl> form = f.as_convex_pwl(m_, budget)) {
        // One conversion for the whole run — the RLE replay's analog of the
        // PwlProblem one-conversion-per-slot contract.
        advance_repeated_pwl(*form, count, xl, xu);
        if (rewind_enabled_ && !rewind_replaying_) {
          rewind_record(StoredInput{false, std::move(*form), {}}, count);
        }
        return;
      }
      if (backend_ == Backend::kPwl) {
        throw std::invalid_argument(
            "WorkFunctionTracker: cost function has no compact convex-PWL "
            "form (forced-PWL backend)");
      }
    }
    init_dense();
  }
  f.eval_row(m_, scratch_.span());
  advance_repeated_dense(std::span<const double>(scratch_.span()), count, xl,
                         xu);
  if (rewind_enabled_ && !rewind_replaying_) {
    rewind_record(
        StoredInput{true, {},
                    std::vector<double>(scratch_.begin(), scratch_.end())},
        count);
  }
}

void WorkFunctionTracker::advance_repeated(const rs::core::ConvexPwl& f,
                                           int count, std::span<int> xl,
                                           std::span<int> xu) {
  check_repeat_args(count, xl, xu);
  if (count == 0) return;
  if (mode_ != Mode::kDense) {
    if (backend_ == Backend::kDense) {
      init_dense();
    } else {
      advance_repeated_pwl(f, count, xl, xu);
      if (rewind_enabled_ && !rewind_replaying_) {
        rewind_record(StoredInput{false, f, {}}, count);
      }
      return;
    }
  }
  f.materialize(m_, scratch_.span());
  advance_repeated_dense(std::span<const double>(scratch_.span()), count, xl,
                         xu);
  if (rewind_enabled_ && !rewind_replaying_) {
    rewind_record(
        StoredInput{true, {},
                    std::vector<double>(scratch_.begin(), scratch_.end())},
        count);
  }
}

void WorkFunctionTracker::advance_repeated(std::span<const double> values,
                                           int count, std::span<int> xl,
                                           std::span<int> xu) {
  check_repeat_args(count, xl, xu);
  if (count == 0) return;
  if (static_cast<int>(values.size()) != m_ + 1) {
    throw std::invalid_argument(
        "WorkFunctionTracker::advance_repeated: need m+1 values");
  }
  if (mode_ != Mode::kDense) {
    if (backend_ == Backend::kPwl) {
      throw std::logic_error(
          "WorkFunctionTracker: raw value rows require the dense backend");
    }
    init_dense();
  }
  advance_repeated_dense(values, count, xl, xu);
  if (rewind_enabled_ && !rewind_replaying_) {
    rewind_record(
        StoredInput{true, {}, std::vector<double>(values.begin(), values.end())},
        count);
  }
}

void WorkFunctionTracker::advance_repeated_pwl(const ConvexPwl& f, int count,
                                               std::span<int> xl,
                                               std::span<int> xu) {
  ConvexPwl& prev_l = prev_l_scratch_;
  ConvexPwl& prev_u = prev_u_scratch_;
  for (int done = 0; done < count; ++done) {
    // Snapshot the shapes (O(K) copies into warm scratch) only while a
    // jump can still pay.
    const bool may_jump = done + 1 < count;
    double vl_prev = 0.0;
    double vu_prev = 0.0;
    if (may_jump) {
      prev_l = pwl_l_;
      prev_u = pwl_u_;
      vl_prev = pwl_l_.is_infinite() ? 0.0 : pwl_l_.value_at(pwl_l_.lo());
      vu_prev = pwl_u_.is_infinite() ? 0.0 : pwl_u_.value_at(pwl_u_.lo());
    }
    advance_pwl(f);
    xl[static_cast<std::size_t>(done)] = x_lower_;
    xu[static_cast<std::size_t>(done)] = x_upper_;
    if (may_jump && pwl_l_.same_shape(prev_l) && pwl_u_.same_shape(prev_u)) {
      // Shape fixpoint: every mutating ConvexPwl operation drives its
      // control flow from the shape alone (see same_shape), so all
      // remaining advances of this run would reproduce this exact shape —
      // and hence these exact bounds.  Values grow by a shape-determined
      // per-step increment; fast-forward them in one shift.
      const int remaining = count - done - 1;
      if (!pwl_l_.is_infinite()) {
        const double step_l = pwl_l_.value_at(pwl_l_.lo()) - vl_prev;
        pwl_l_.shift_value(static_cast<double>(remaining) * step_l);
      }
      if (!pwl_u_.is_infinite()) {
        const double step_u = pwl_u_.value_at(pwl_u_.lo()) - vu_prev;
        pwl_u_.shift_value(static_cast<double>(remaining) * step_u);
      }
      for (int i = done + 1; i < count; ++i) {
        xl[static_cast<std::size_t>(i)] = x_lower_;
        xu[static_cast<std::size_t>(i)] = x_upper_;
      }
      tau_ += remaining;
      RS_AUDIT(
          audit_invariants("WorkFunctionTracker::advance_repeated_pwl"));
      return;
    }
  }
}

void WorkFunctionTracker::advance_repeated_dense(std::span<const double> values,
                                                 int count, std::span<int> xl,
                                                 std::span<int> xu) {
  // No dense step can be skipped (the minimizer scans compare accumulated
  // label values), but the caller evaluated the run's row once — the
  // eval_row elimination is the dense RLE win.
  for (int i = 0; i < count; ++i) {
    advance_dense(values);
    xl[static_cast<std::size_t>(i)] = x_lower_;
    xu[static_cast<std::size_t>(i)] = x_upper_;
  }
}

void WorkFunctionTracker::advance_pwl(const ConvexPwl& f) {
  mode_ = Mode::kPwl;
  // The PWL mirror of the three dense passes: relax clips the slope
  // sequence into the accounting band and extends the domain to [0, m]
  // (flat where the movement is free, ±β where it is charged), then the
  // f_τ addition merges breakpoint sets and intersects domains.
  pwl_l_.relax_charge_up(beta_, 0, m_);
  pwl_l_.add(f);
  pwl_u_.relax_charge_down(beta_, 0, m_);
  pwl_u_.add(f);
  if (pwl_l_.is_infinite()) {
    // All labels +inf: the dense minimizer scans leave x^L at 0 (strict <
    // never fires) and walk x^U to m (<= always fires); mirror that.
    x_lower_ = 0;
    x_upper_ = m_;
  } else {
    x_lower_ = pwl_l_.argmin().lo;
    x_upper_ = pwl_u_.argmin().hi;
  }
  ++tau_;
  RS_AUDIT(audit_invariants("WorkFunctionTracker::advance_pwl"));
}

void WorkFunctionTracker::advance_dense(std::span<const double> values) {
  const int m = m_;
  const double beta = beta_;
  double* cl = chat_l_.data();
  double* cu = chat_u_.data();

  // Pass 1 (forward) — L-relax prefix part:
  //   chat_l(x) <- min( chat_l(x), min_{x'<=x} chat_l(x') + β(x−x') ).
  double best_up = kInf;  // min chat_l(x') − βx'
  for (int x = 0; x <= m; ++x) {
    best_up = std::min(best_up, cl[x] - beta * x);
    cl[x] = std::min(cl[x], best_up + beta * x);
  }

  // Pass 2 (backward) — L suffix minimum (free power-down under
  // L-accounting) and the U-relax descent part
  //   chat_u(x) <- min( chat_u(x), min_{x'>=x} chat_u(x') + β(x'−x) ).
  double suffix_l = kInf;
  double best_down = kInf;  // min chat_u(x') + βx'
  for (int x = m; x >= 0; --x) {
    suffix_l = std::min(suffix_l, cl[x]);
    cl[x] = suffix_l;
    best_down = std::min(best_down, cu[x] + beta * x);
    cu[x] = std::min(cu[x], best_down - beta * x);
  }

  // Pass 3 (forward) — U prefix minimum (free power-up under U-accounting),
  // the f_τ addition for both accountings, and the minimizer bounds of
  // Section 3.1 tracked on the final values (strict < keeps the smallest
  // argmin of Ĉ^L; <= moves x^U right onto the largest argmin of Ĉ^U).
  // All labels are extended reals in [0, +inf], so the additions need no
  // infinity guards.  The minimizer updates stay *branches*, not selects:
  // they fire O(1) times per pass, so the predictor eats them for free,
  // whereas cmov chains would sit on the loop-carried dependency (a
  // measured 15-35% LCP slowdown).
  double prefix_u = kInf;
  double best_l = kInf;
  double best_u = kInf;
  int x_lower = 0;
  int x_upper = 0;
  for (int x = 0; x <= m; ++x) {
    const double f = values[static_cast<std::size_t>(x)];
    if (std::isnan(f)) {
      throw std::invalid_argument("WorkFunctionTracker::advance: NaN cost");
    }
    prefix_u = std::min(prefix_u, cu[x]);
    const double l = cl[x] + f;
    const double u = prefix_u + f;
    cl[x] = l;
    cu[x] = u;
    if (l < best_l) {
      best_l = l;
      x_lower = x;
    }
    if (u <= best_u) {
      best_u = u;
      x_upper = x;
    }
  }
  x_lower_ = x_lower;
  x_upper_ = x_upper;
  ++tau_;
  RS_AUDIT(audit_invariants("WorkFunctionTracker::advance_dense"));
}

namespace {

// PWL form wire layout: u8 infinite-flag, then (finite only) i32 lo, i32 hi,
// f64 v_lo, f64 slope0, u32 increment count, count × (i32 pos, f64 dv).
void write_pwl(rs::core::CheckpointWriter& w, const ConvexPwl& f) {
  w.u8(f.is_infinite() ? 1 : 0);
  if (f.is_infinite()) return;
  w.i32(f.lo());
  w.i32(f.hi());
  w.f64(f.value_lo());
  w.f64(f.first_slope());
  const ConvexPwl::SlopeIncrements& increments = f.slope_increments();
  w.u32(static_cast<std::uint32_t>(increments.size()));
  for (const auto& [pos, dv] : increments) {
    w.i32(pos);
    w.f64(dv);
  }
}

ConvexPwl read_pwl(rs::core::CheckpointReader& r, int m) {
  const std::uint8_t infinite_flag = r.u8();
  if (infinite_flag > 1) {
    throw rs::core::CheckpointFormatError(
        "tracker checkpoint: invalid PWL infinite flag");
  }
  if (infinite_flag == 1) return ConvexPwl::infinite();
  const std::int32_t lo = r.i32();
  const std::int32_t hi = r.i32();
  const double v_lo = r.f64();
  const double slope0 = r.f64();
  const std::uint32_t count = r.u32();
  // Each increment occupies 12 payload bytes; an inflated count must be a
  // format error before it becomes an allocation.
  if (count > r.remaining() / 12) {
    throw rs::core::CheckpointFormatError(
        "tracker checkpoint: PWL increment count exceeds payload");
  }
  if (lo < 0 || hi > m) {
    throw rs::core::CheckpointFormatError(
        "tracker checkpoint: PWL domain outside [0, m]");
  }
  ConvexPwl::SlopeIncrements increments;
  increments.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::int32_t pos = r.i32();
    const double dv = r.f64();
    increments.emplace_back(pos, dv);
  }
  // Writers emit ascending positions, but the format has always accepted
  // any order of unique positions; sort before from_parts' ascending check.
  std::sort(increments.begin(), increments.end());
  const auto duplicate = std::adjacent_find(
      increments.begin(), increments.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  if (duplicate != increments.end()) {
    throw rs::core::CheckpointFormatError(
        "tracker checkpoint: duplicate PWL increment position");
  }
  try {
    return ConvexPwl::from_parts(lo, hi, v_lo, slope0, std::move(increments));
  } catch (const std::invalid_argument& e) {
    throw rs::core::CheckpointFormatError(
        std::string("tracker checkpoint: invalid PWL form: ") + e.what());
  }
}

}  // namespace

std::vector<std::uint8_t> WorkFunctionTracker::snapshot() const {
  rs::core::CheckpointWriter w;
  write_snapshot_payload(w);
  return std::move(w).seal(rs::core::kTrackerCheckpointKind);
}

void WorkFunctionTracker::write_snapshot(rs::core::CheckpointWriter& w) const {
  const std::size_t mark = w.begin_nested(rs::core::kTrackerCheckpointKind);
  write_snapshot_payload(w);
  w.end_nested(mark);
}

void WorkFunctionTracker::write_snapshot_payload(
    rs::core::CheckpointWriter& w) const {
  // Reserve the exact payload (layout below and in write_pwl), so the one
  // checkpoint buffer never regrows while the labels are written.
  const auto pwl_size = [](const ConvexPwl& f) -> std::size_t {
    return f.is_infinite() ? 1 : 29 + 12 * f.slope_increments().size();
  };
  std::size_t size = 30;
  if (mode_ == Mode::kPwl) {
    size += pwl_size(pwl_l_) + pwl_size(pwl_u_);
  } else if (mode_ == Mode::kDense) {
    size += 16 * (static_cast<std::size_t>(m_) + 1);
  }
  w.reserve(size);
  w.i32(m_);
  w.f64(beta_);
  w.u8(static_cast<std::uint8_t>(backend_));
  w.u8(static_cast<std::uint8_t>(mode_));
  w.i64(tau_);
  w.i32(x_lower_);
  w.i32(x_upper_);
  if (mode_ == Mode::kPwl) {
    write_pwl(w, pwl_l_);
    write_pwl(w, pwl_u_);
  } else if (mode_ == Mode::kDense) {
    for (int x = 0; x <= m_; ++x) w.f64(chat_l_[static_cast<std::size_t>(x)]);
    for (int x = 0; x <= m_; ++x) w.f64(chat_u_[static_cast<std::size_t>(x)]);
  }
}

WorkFunctionTracker WorkFunctionTracker::restore(
    std::span<const std::uint8_t> bytes) {
  using rs::core::CheckpointFormatError;
  rs::core::CheckpointReader r(bytes, rs::core::kTrackerCheckpointKind);
  const std::int32_t m = r.i32();
  const double beta = r.f64();
  const std::uint8_t backend_tag = r.u8();
  const std::uint8_t mode_tag = r.u8();
  const std::int64_t tau = r.i64();
  const std::int32_t x_lower = r.i32();
  const std::int32_t x_upper = r.i32();

  if (m < 0) throw CheckpointFormatError("tracker checkpoint: m < 0");
  if (!std::isfinite(beta) || !(beta > 0.0)) {
    throw CheckpointFormatError("tracker checkpoint: invalid beta");
  }
  if (backend_tag > static_cast<std::uint8_t>(Backend::kPwl)) {
    throw CheckpointFormatError("tracker checkpoint: invalid backend tag");
  }
  if (mode_tag > static_cast<std::uint8_t>(Mode::kDense)) {
    throw CheckpointFormatError("tracker checkpoint: invalid mode tag");
  }
  if (tau < 0 || tau > std::numeric_limits<std::int32_t>::max()) {
    throw CheckpointFormatError("tracker checkpoint: invalid tau");
  }
  if (x_lower < 0 || x_lower > m || x_upper < 0 || x_upper > m) {
    throw CheckpointFormatError("tracker checkpoint: bounds outside [0, m]");
  }
  const Backend backend = static_cast<Backend>(backend_tag);
  const Mode mode = static_cast<Mode>(mode_tag);
  if (mode == Mode::kPwl && backend == Backend::kDense) {
    throw CheckpointFormatError(
        "tracker checkpoint: PWL mode on a forced-dense backend");
  }
  if (mode == Mode::kDense && backend == Backend::kPwl) {
    throw CheckpointFormatError(
        "tracker checkpoint: dense mode on a forced-PWL backend");
  }
  if (mode == Mode::kUndecided && tau != 0) {
    throw CheckpointFormatError(
        "tracker checkpoint: advanced tracker with undecided backend");
  }
  if (mode == Mode::kPwl && tau == 0) {
    throw CheckpointFormatError("tracker checkpoint: PWL mode with tau = 0");
  }

  WorkFunctionTracker t(m, beta, backend);
  if (mode == Mode::kPwl) {
    t.pwl_l_ = read_pwl(r, m);
    t.pwl_u_ = read_pwl(r, m);
    t.mode_ = Mode::kPwl;
  } else if (mode == Mode::kDense) {
    // Borrow the workspace rows (and the eval_row scratch later advances
    // need) exactly as a live fallback would, then overwrite the labels
    // with the snapshotted bit patterns.
    t.init_dense();
    for (int x = 0; x <= m; ++x) {
      const double v = r.f64();
      if (std::isnan(v)) {
        throw CheckpointFormatError("tracker checkpoint: NaN dense label");
      }
      t.chat_l_[static_cast<std::size_t>(x)] = v;
    }
    for (int x = 0; x <= m; ++x) {
      const double v = r.f64();
      if (std::isnan(v)) {
        throw CheckpointFormatError("tracker checkpoint: NaN dense label");
      }
      t.chat_u_[static_cast<std::size_t>(x)] = v;
    }
  }
  r.finish();
  t.tau_ = static_cast<int>(tau);
  t.x_lower_ = x_lower;
  t.x_upper_ = x_upper;
  RS_AUDIT(t.audit_invariants("WorkFunctionTracker::restore"));
  return t;
}

void WorkFunctionTracker::require_started() const {
  if (tau_ == 0) {
    throw std::logic_error("WorkFunctionTracker: no function fed yet");
  }
}

int WorkFunctionTracker::breakpoint_count() const noexcept {
  return mode_ == Mode::kPwl ? pwl_l_.breakpoints() : 0;
}

double WorkFunctionTracker::chat_lower(int x) const {
  require_started();
  if (x < 0 || x > m_) throw std::out_of_range("chat_lower: x out of range");
  if (mode_ == Mode::kPwl) return pwl_l_.value_at(x);
  return chat_l_[static_cast<std::size_t>(x)];
}

double WorkFunctionTracker::chat_upper(int x) const {
  require_started();
  if (x < 0 || x > m_) throw std::out_of_range("chat_upper: x out of range");
  if (mode_ == Mode::kPwl) return pwl_u_.value_at(x);
  return chat_u_[static_cast<std::size_t>(x)];
}

const std::vector<double>& WorkFunctionTracker::chat_lower_vector() {
  require_started();
  ensure_dense_backend();
  return chat_l_.vec();
}

const std::vector<double>& WorkFunctionTracker::chat_upper_vector() {
  require_started();
  ensure_dense_backend();
  return chat_u_.vec();
}

const ConvexPwl& WorkFunctionTracker::chat_lower_pwl() const {
  require_started();
  if (mode_ != Mode::kPwl) {
    throw std::logic_error("chat_lower_pwl: PWL backend is not live");
  }
  return pwl_l_;
}

const ConvexPwl& WorkFunctionTracker::chat_upper_pwl() const {
  require_started();
  if (mode_ != Mode::kPwl) {
    throw std::logic_error("chat_upper_pwl: PWL backend is not live");
  }
  return pwl_u_;
}

int WorkFunctionTracker::x_lower() const {
  require_started();
  return x_lower_;
}

int WorkFunctionTracker::x_upper() const {
  require_started();
  return x_upper_;
}

// ---------------------------------------------------------------------------
// Incremental repair (rewind buffer) — DESIGN.md §12
// ---------------------------------------------------------------------------

namespace {

// Bit-pattern row comparison (stricter than ==: distinguishes ±0.0).  The
// labels are NaN-free by the advance contract, so memcmp equality implies
// value equality and vice versa up to signed zeros.
bool rows_bitwise_equal(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

WorkFunctionTracker::TrackerState WorkFunctionTracker::capture_state() const {
  TrackerState s;
  s.mode = mode_;
  s.tau = tau_;
  s.x_lower = x_lower_;
  s.x_upper = x_upper_;
  if (mode_ == Mode::kDense) {
    s.chat_l.assign(chat_l_.begin(), chat_l_.end());
    s.chat_u.assign(chat_u_.begin(), chat_u_.end());
  } else {
    s.pwl_l = pwl_l_;
    s.pwl_u = pwl_u_;
  }
  return s;
}

void WorkFunctionTracker::restore_state(const TrackerState& s) {
  mode_ = s.mode;
  tau_ = s.tau;
  x_lower_ = s.x_lower;
  x_upper_ = s.x_upper;
  if (s.mode == Mode::kDense) {
    const std::size_t width = static_cast<std::size_t>(m_) + 1;
    rs::util::Workspace& workspace = rs::util::this_thread_workspace();
    if (chat_l_.size() != width) chat_l_ = workspace.borrow<double>(width);
    if (chat_u_.size() != width) chat_u_ = workspace.borrow<double>(width);
    if (scratch_.size() != width) scratch_ = workspace.borrow<double>(width);
    std::copy(s.chat_l.begin(), s.chat_l.end(), chat_l_.begin());
    std::copy(s.chat_u.begin(), s.chat_u.end(), chat_u_.begin());
    pwl_l_ = ConvexPwl::infinite();
    pwl_u_ = ConvexPwl::infinite();
  } else {
    pwl_l_ = s.pwl_l;
    pwl_u_ = s.pwl_u;
  }
}

bool WorkFunctionTracker::states_equal(const TrackerState& a,
                                       const TrackerState& b) {
  if (a.mode != b.mode || a.tau != b.tau || a.x_lower != b.x_lower ||
      a.x_upper != b.x_upper) {
    return false;
  }
  if (a.mode == Mode::kDense) {
    return rows_bitwise_equal(a.chat_l, b.chat_l) &&
           rows_bitwise_equal(a.chat_u, b.chat_u);
  }
  return a.pwl_l.bitwise_equal(b.pwl_l) && a.pwl_u.bitwise_equal(b.pwl_u);
}

void WorkFunctionTracker::enable_rewind(int capacity) {
  if (capacity < 1) {
    throw std::invalid_argument(
        "WorkFunctionTracker::enable_rewind: capacity must be >= 1");
  }
  rewind_enabled_ = true;
  rewind_capacity_ = static_cast<std::size_t>(capacity);
  rewind_reset_base();
}

void WorkFunctionTracker::disable_rewind() {
  rewind_enabled_ = false;
  rewind_capacity_ = 0;
  rewind_entries_.clear();
  rewind_base_ = TrackerState{};
  rewind_base_tau_ = tau_;
}

void WorkFunctionTracker::rewind_reset_base() {
  rewind_entries_.clear();
  rewind_base_ = capture_state();
  rewind_base_tau_ = tau_;
}

void WorkFunctionTracker::rewind_record(StoredInput input, int count) {
  RewindEntry entry;
  entry.start = tau_ - count + 1;
  entry.count = count;
  entry.input = std::move(input);
  entry.post = capture_state();
  rewind_entries_.push_back(std::move(entry));
  while (rewind_entries_.size() > rewind_capacity_) {
    RewindEntry& front = rewind_entries_.front();
    rewind_base_tau_ = front.start + front.count - 1;
    rewind_base_ = std::move(front.post);
    rewind_entries_.pop_front();
  }
}

WorkFunctionTracker::StoredInput WorkFunctionTracker::rewind_input(
    int slot) const {
  if (!rewind_covers(slot)) {
    throw std::out_of_range(
        "WorkFunctionTracker::rewind_input: slot outside the rewind window");
  }
  auto it = std::upper_bound(
      rewind_entries_.begin(), rewind_entries_.end(), slot,
      [](int s, const RewindEntry& e) { return s < e.start; });
  return std::prev(it)->input;
}

void WorkFunctionTracker::replay_input(const StoredInput& input, int count,
                                       std::vector<int>* lo,
                                       std::vector<int>* up) {
  if (count <= 0) return;
  std::vector<int> xl(static_cast<std::size_t>(count));
  std::vector<int> xu(static_cast<std::size_t>(count));
  if (input.is_row) {
    advance_repeated(std::span<const double>(input.row), count, xl, xu);
  } else {
    advance_repeated(input.form, count, xl, xu);
  }
  if (lo != nullptr) lo->insert(lo->end(), xl.begin(), xl.end());
  if (up != nullptr) up->insert(up->end(), xu.begin(), xu.end());
}

WorkFunctionTracker::Repair WorkFunctionTracker::repair_impl(
    int slot, const std::function<StoredInput()>& resolve_edit) {
  if (!rewind_enabled_) {
    throw std::logic_error(
        "WorkFunctionTracker::repair_from: rewind buffer not enabled");
  }
  if (!rewind_covers(slot)) {
    throw std::out_of_range(
        "WorkFunctionTracker::repair_from: slot outside the rewind window");
  }
  auto it = std::upper_bound(
      rewind_entries_.begin(), rewind_entries_.end(), slot,
      [](int s, const RewindEntry& e) { return s < e.start; });
  const std::size_t e = static_cast<std::size_t>(
      std::distance(rewind_entries_.begin(), std::prev(it)));
  const RewindEntry& edited_entry = rewind_entries_[e];
  const int prefix = slot - edited_entry.start;
  const int suffix = edited_entry.count - prefix - 1;

  TrackerState final_backup = capture_state();
  Repair result;
  result.first_slot = slot;

  std::vector<RewindEntry> rebuilt;  // replaces entries [e, stop)
  std::size_t stop = e;
  bool reconverged = false;
  const bool was_replaying = rewind_replaying_;
  rewind_replaying_ = true;
  try {
    restore_state(e == 0 ? rewind_base_ : rewind_entries_[e - 1].post);
    // The containing run replays in up to three portions: the unchanged
    // prefix, the edited slot, the unchanged run suffix.  Splitting an RLE
    // run defines the reference semantics advance_repeated(f, prefix) ·
    // advance(f') · advance_repeated(f, suffix) — a legitimate from-scratch
    // sequence (bounds bit-identical to slot-by-slot on both backends).
    if (prefix > 0) {
      replay_input(edited_entry.input, prefix, nullptr, nullptr);
      result.slots_replayed += prefix;
      rebuilt.push_back(
          {edited_entry.start, prefix, edited_entry.input, capture_state()});
    }
    StoredInput edited = resolve_edit();
    if (edited.is_row != edited_entry.input.is_row) {
      // The edit would flip the backend trajectory at this slot (a PWL-mode
      // slot edited to a non-convertible cost, or the dense-fallback slot
      // edited to a convertible one).  The stored suffix was recorded under
      // the other mode, so a bit-faithful repair is impossible — callers
      // re-solve from scratch instead.
      throw std::invalid_argument(
          "WorkFunctionTracker::repair_from: edit changes the backend "
          "trajectory; re-solve from scratch");
    }
    replay_input(edited, 1, &result.lower, &result.upper);
    result.slots_replayed += 1;
    rebuilt.push_back({slot, 1, std::move(edited), capture_state()});
    if (suffix > 0) {
      replay_input(edited_entry.input, suffix, &result.lower, &result.upper);
      result.slots_replayed += suffix;
      rebuilt.push_back(
          {slot + 1, suffix, edited_entry.input, capture_state()});
    }
    stop = e + 1;
    reconverged = states_equal(rebuilt.back().post, edited_entry.post);
    // Re-relax through the stored suffix until the recomputed state equals
    // a stored post-state bitwise: replay from identical bits is
    // deterministic, so the rest of the suffix — including the final
    // labels — is then already correct and need not be touched.
    while (!reconverged && stop < rewind_entries_.size()) {
      const RewindEntry& next = rewind_entries_[stop];
      replay_input(next.input, next.count, &result.lower, &result.upper);
      result.slots_replayed += next.count;
      rebuilt.push_back({next.start, next.count, next.input, capture_state()});
      reconverged = states_equal(rebuilt.back().post, next.post);
      ++stop;
    }
  } catch (...) {  // rs-lint: catch-all-ok (restore pre-repair state +
                   // rethrow)
    rewind_replaying_ = was_replaying;
    restore_state(final_backup);
    throw;
  }
  rewind_replaying_ = was_replaying;

  if (reconverged) {
    // Everything from the reconvergence boundary on — including the final
    // labels and bounds — is bitwise what it already was.
    restore_state(final_backup);
    result.early_exit = stop < rewind_entries_.size();
  }
  auto first = rewind_entries_.begin() + static_cast<std::ptrdiff_t>(e);
  auto last = rewind_entries_.begin() + static_cast<std::ptrdiff_t>(stop);
  auto pos = rewind_entries_.erase(first, last);
  rewind_entries_.insert(pos, std::make_move_iterator(rebuilt.begin()),
                         std::make_move_iterator(rebuilt.end()));
  while (rewind_entries_.size() > rewind_capacity_) {
    RewindEntry& front = rewind_entries_.front();
    rewind_base_tau_ = front.start + front.count - 1;
    rewind_base_ = std::move(front.post);
    rewind_entries_.pop_front();
  }
  RS_AUDIT(audit_invariants("WorkFunctionTracker::repair_from"));
  return result;
}

WorkFunctionTracker::Repair WorkFunctionTracker::repair_from(
    int slot, const rs::core::CostFunction& f) {
  return repair_impl(slot, [&]() -> StoredInput {
    // Resolve exactly as advance() would, given the mode reached by the
    // replayed prefix — which is the mode a from-scratch run of the edited
    // instance has at this slot.
    if (mode_ != Mode::kDense && backend_ != Backend::kDense) {
      const int budget = backend_ == Backend::kPwl
                             ? rs::core::kUnboundedBreakpoints
                             : rs::core::compact_pwl_budget_for(m_);
      if (std::optional<ConvexPwl> form = f.as_convex_pwl(m_, budget)) {
        return StoredInput{false, std::move(*form), {}};
      }
      if (backend_ == Backend::kPwl) {
        throw std::invalid_argument(
            "WorkFunctionTracker::repair_from: cost function has no convex-"
            "PWL form (forced-PWL backend)");
      }
    }
    StoredInput input;
    input.is_row = true;
    input.row.resize(static_cast<std::size_t>(m_) + 1);
    f.eval_row(m_, input.row);
    return input;
  });
}

WorkFunctionTracker::Repair WorkFunctionTracker::repair_from(
    int slot, const rs::core::ConvexPwl& f) {
  return repair_impl(slot, [&]() -> StoredInput {
    if (mode_ != Mode::kDense && backend_ != Backend::kDense) {
      return StoredInput{false, f, {}};
    }
    StoredInput input;
    input.is_row = true;
    input.row.resize(static_cast<std::size_t>(m_) + 1);
    f.materialize(m_, input.row);
    return input;
  });
}

WorkFunctionTracker::Repair WorkFunctionTracker::repair_from(
    int slot, std::span<const double> values) {
  if (static_cast<int>(values.size()) != m_ + 1) {
    throw std::invalid_argument(
        "WorkFunctionTracker::repair_from: need m+1 values");
  }
  if (backend_ == Backend::kPwl) {
    throw std::logic_error(
        "WorkFunctionTracker::repair_from: raw value rows require the dense "
        "backend");
  }
  return repair_impl(slot, [&]() -> StoredInput {
    return StoredInput{true, {},
                       std::vector<double>(values.begin(), values.end())};
  });
}

WorkFunctionTracker::Repair WorkFunctionTracker::repair_from(
    int slot, const StoredInput& input) {
  if (input.is_row && static_cast<int>(input.row.size()) != m_ + 1) {
    throw std::invalid_argument(
        "WorkFunctionTracker::repair_from: stored row needs m+1 values");
  }
  return repair_impl(slot, [&]() -> StoredInput { return input; });
}

WorkFunctionTracker WorkFunctionTracker::clone() const {
  WorkFunctionTracker t(m_, beta_, backend_);
  t.restore_state(capture_state());
  t.rewind_enabled_ = rewind_enabled_;
  t.rewind_capacity_ = rewind_capacity_;
  t.rewind_base_tau_ = rewind_base_tau_;
  t.rewind_base_ = rewind_base_;
  t.rewind_entries_ = rewind_entries_;
  return t;
}

void WorkFunctionTracker::audit_invariants(const char* site) const {
  namespace audit = rs::util::audit;
  if (tau_ == 0) return;  // nothing advanced yet: no corridor to check

  // Corridor invariants (Lemma 6): ordered, in range.
  audit::require(x_lower_ >= 0 && x_upper_ <= m_, "corridor-in-range", site);
  audit::require(x_lower_ <= x_upper_, "corridor-ordered", site);

  // A label is an extended real in [0, +inf]: NaN-free, and non-negative up
  // to FP association noise (the relax re-anchoring subtracts tangents).
  const auto check_label = [&](double v) {
    audit::require(!std::isnan(v), "labels-nan-free", site);
    audit::require(v >= -1e-6 * std::max(1.0, std::fabs(v)),
                   "labels-nonnegative", site);
  };

  if (mode_ == Mode::kPwl) {
    rs::core::audit_convex_pwl(pwl_l_, site);
    rs::core::audit_convex_pwl(pwl_u_, site);
    if (pwl_l_.is_infinite() || pwl_u_.is_infinite()) {
      // All labels +inf: the dense scans' conventions pin the corridor.
      audit::require(x_lower_ == 0 && x_upper_ == m_,
                     "corridor-argmin", site);
      return;
    }
    const rs::core::ConvexPwl::ArgminInterval al = pwl_l_.argmin();
    const rs::core::ConvexPwl::ArgminInterval au = pwl_u_.argmin();
    audit::require(al.lo == x_lower_ && au.hi == x_upper_,
                   "corridor-argmin", site);
    check_label(al.value);
    check_label(au.value);
    // Lemma-7 redundancy Ĉ^L(x) = Ĉ^U(x) + βx at the corridor ends.
    for (const int x : {x_lower_, x_upper_}) {
      const double cl = pwl_l_.value_at(x);
      const double cu = pwl_u_.value_at(x);
      if (std::isinf(cl) || std::isinf(cu)) continue;
      audit::require(
          rs::util::approx_equal(cl, cu + beta_ * x, 1e-6, 1e-6),
          "lemma7-redundancy", site);
    }
    return;
  }

  if (mode_ != Mode::kDense) return;
  const std::size_t width = static_cast<std::size_t>(m_) + 1;
  audit::require(chat_l_.size() == width && chat_u_.size() == width,
                 "labels-shape", site);
  const double* cl = chat_l_.data();
  const double* cu = chat_u_.data();
  // Tie-break-exact argmin re-scan (strict < keeps the smallest argmin of
  // Ĉ^L; <= walks x^U onto the largest argmin of Ĉ^U) — all-+inf rows
  // leave x^L at 0 and carry x^U to m, matching the advance conventions.
  double best_l = kInf;
  double best_u = kInf;
  int x_lower = 0;
  int x_upper = 0;
  for (int x = 0; x <= m_; ++x) {
    check_label(cl[static_cast<std::size_t>(x)]);
    check_label(cu[static_cast<std::size_t>(x)]);
    if (cl[static_cast<std::size_t>(x)] < best_l) {
      best_l = cl[static_cast<std::size_t>(x)];
      x_lower = x;
    }
    if (cu[static_cast<std::size_t>(x)] <= best_u) {
      best_u = cu[static_cast<std::size_t>(x)];
      x_upper = x;
    }
  }
  audit::require_with(
      x_lower == x_lower_ && x_upper == x_upper_, "corridor-argmin", site,
      [&] {
        return "rescan (" + std::to_string(x_lower) + ", " +
               std::to_string(x_upper) + ") vs tracked (" +
               std::to_string(x_lower_) + ", " + std::to_string(x_upper_) +
               ")";
      });
  // Lemma-7 redundancy at sampled states (0, corridor ends, m).
  for (const int x : {0, x_lower_, x_upper_, m_}) {
    const double l = cl[static_cast<std::size_t>(x)];
    const double u = cu[static_cast<std::size_t>(x)];
    if (std::isinf(l) || std::isinf(u)) continue;
    audit::require(
        rs::util::approx_equal(l, u + beta_ * x, 1e-6, 1e-6),
        "lemma7-redundancy", site);
  }
  // min Ĉ^L monotone non-decreasing under relax+add (costs are >= 0, so
  // work functions only grow).  The watermark reseeds whenever τ moved
  // backwards — a repair or restore rewound the tracker.
  if (tau_ > audit_last_tau_ && audit_last_tau_ > 0) {
    // An infinite watermark (infeasible instance) admits no slack: the
    // relative term would be inf - inf = NaN and poison the comparison.
    const double slack =
        std::isinf(audit_min_watermark_)
            ? 0.0
            : 1e-6 * std::max(1.0, std::fabs(audit_min_watermark_));
    audit::require(best_l >= audit_min_watermark_ - slack,
                   "workfn-min-monotone", site);
  }
  audit_last_tau_ = tau_;
  audit_min_watermark_ = best_l;
}

BoundTrajectory compute_bounds(const rs::core::Problem& p,
                               WorkFunctionTracker::Backend backend) {
  BoundTrajectory bounds;
  bounds.lower.reserve(static_cast<std::size_t>(p.horizon()));
  bounds.upper.reserve(static_cast<std::size_t>(p.horizon()));
  WorkFunctionTracker tracker(p.max_servers(), p.beta(), backend);
  for (int t = 1; t <= p.horizon(); ++t) {
    tracker.advance(p.f(t));
    bounds.lower.push_back(tracker.x_lower());
    bounds.upper.push_back(tracker.x_upper());
  }
  return bounds;
}

BoundTrajectory compute_bounds(const rs::core::DenseProblem& dense) {
  BoundTrajectory bounds;
  bounds.lower.reserve(static_cast<std::size_t>(dense.horizon()));
  bounds.upper.reserve(static_cast<std::size_t>(dense.horizon()));
  WorkFunctionTracker tracker(dense.max_servers(), dense.beta(),
                              WorkFunctionTracker::Backend::kDense);
  for (int t = 1; t <= dense.horizon(); ++t) {
    tracker.advance(dense.row(t));
    bounds.lower.push_back(tracker.x_lower());
    bounds.upper.push_back(tracker.x_upper());
  }
  return bounds;
}

BoundTrajectory compute_bounds(const rs::core::PwlProblem& pwl) {
  BoundTrajectory bounds;
  bounds.lower.reserve(static_cast<std::size_t>(pwl.horizon()));
  bounds.upper.reserve(static_cast<std::size_t>(pwl.horizon()));
  WorkFunctionTracker tracker(pwl.max_servers(), pwl.beta(),
                              WorkFunctionTracker::Backend::kPwl);
  for (int t = 1; t <= pwl.horizon(); ++t) {
    tracker.advance(pwl.form(t));
    bounds.lower.push_back(tracker.x_lower());
    bounds.upper.push_back(tracker.x_upper());
  }
  return bounds;
}

}  // namespace rs::offline
