// Discrete Lazy Capacity Provisioning (Section 3, Theorem 2), with an
// optional prediction window (Section 5.4).
//
//   x^LCP_0 = 0,   x^LCP_τ = [ x^LCP_{τ-1} ]^{x^U_τ}_{x^L_τ}   (eq. 13)
//
// where x^L_τ / x^U_τ are the smallest/largest minimizers of the work
// functions Ĉ^L_τ / Ĉ^U_τ (Section 3.1).  The algorithm changes its state
// only when forced out of the [x^L, x^U] corridor — it is 3-competitive and,
// by Theorem 4, optimally so among deterministic online algorithms for the
// discrete problem.
//
// With a window w > 0 the algorithm additionally knows f_{τ+1}..f_{τ+w} at
// time τ.  Following Lin et al., the bounds become the τ-th components of
// optimal solutions of the horizon-(τ+w) truncated problems:
//
//   x^{L,w}_τ = smallest x_τ over minimizers of C^L_{τ+w}
//   x^{U,w}_τ = largest  x_τ over minimizers of C^U_{τ+w}
//
// computed as argmin_x [ Ĉ^B_τ(x) + D^B_τ(x) ], where D^B_τ(x) is the
// optimal completion cost of serving the window starting from state x under
// accounting B (up-charging for L, down-charging for U; the kernels live in
// online/lcp_window.hpp).  The completion pass costs O(w·m) per step on the
// dense backend and O(w·(K + B)) on the PWL one; w = 0 is eq. 13 exactly.
// Theorem 10 shows no constant window improves the competitive ratio on
// stretched instances; the E9 experiment reproduces this, while the E10
// trace study shows the practical benefit on real-shaped workloads.
//
// The work-function tracker behind decide() auto-selects its backend: on
// instances whose slot costs admit compact convex-PWL forms every step is
// O(K + B) in breakpoint counts — independent of m, the configuration
// that scales LCP to 10⁵-10⁶ servers (see bench_scaling, E13) — and
// otherwise it runs the dense O(m) three-pass update.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "offline/work_function.hpp"
#include "online/online_algorithm.hpp"

namespace rs::online {

class Lcp final : public OnlineAlgorithm {
 public:
  using Backend = rs::offline::WorkFunctionTracker::Backend;

  /// `backend` pins the tracker backend; kAuto (default) selects per
  /// instance as described above.  kDense is the reference path (and the
  /// baseline the scaling benchmarks compare against); kPwl throws on
  /// costs without a compact convex-PWL form.
  ///
  /// `window` (w >= 0, else std::invalid_argument) is how many predicted
  /// slots decide() consults; longer lookahead spans are cut to w.  With
  /// w > 0 and kAuto, a step takes the m-independent convex-PWL completion
  /// pass whenever the revealed cost and the whole lookahead convert
  /// compactly, and falls back to the dense O(w·m) pass, permanently,
  /// otherwise.  Note the tie caveat of DESIGN.md §8: on instances with
  /// exact cost plateaus the two backends may break windowed corridor ties
  /// differently (both remain valid windowed-LCP runs); pin kDense for
  /// bit-reproducibility against dense references.
  explicit Lcp(Backend backend = Backend::kAuto, int window = 0);

  std::string name() const override {
    return window_ == 0 ? "lcp" : "lcp_window";
  }
  void reset(const OnlineContext& context) override;
  int decide(const rs::core::CostPtr& f,
             std::span<const rs::core::CostPtr> lookahead) override;

  /// decide() with the convex-PWL forms of f and of each lookahead cost
  /// supplied by the caller — the fleet's shared SlotFormCache
  /// (fleet/form_cache.hpp) — so a windowed PWL step neither converts nor
  /// copies a form, and touches no heap once warm (at w = 0 the forms are
  /// unused: decide_run(ConvexPwl) is the plain session's form entry).  Each form must be
  /// exactly what as_convex_pwl(m, core::compact_pwl_budget_for(m)) returns
  /// for its cost (the cache's rule), which makes the decisions bitwise
  /// those of decide(f, lookahead).  A null form anywhere — no compact form
  /// — runs decide(f, lookahead) instead: its own conversion, and the dense
  /// latch when that fails too.  lookahead_forms.size() == lookahead.size().
  int decide(const rs::core::CostPtr& f,
             std::span<const rs::core::CostPtr> lookahead,
             const rs::core::ConvexPwl* form,
             std::span<const rs::core::ConvexPwl* const> lookahead_forms);

  /// Bounds of the most recent step (for diagnostics and the Lemma-12/13
  /// structure tests).
  int last_lower() const { return last_lower_; }
  int last_upper() const { return last_upper_; }

  /// Decides `count` consecutive slots sharing one cost function — the
  /// streaming-serving primitive behind RLE tenant ingest.  The tracker
  /// advances once through advance_repeated (closed-form on the PWL
  /// backend), and the eq. 13 projection runs per slot, so decisions and
  /// corridor bounds are bit-identical to `count` individual decide(f)
  /// calls.  decisions/lower/upper receive one entry per slot and must
  /// each hold at least `count`; requires reset() (or restore()) first and
  /// w = 0 (a windowed session decides slot by slot; std::logic_error).
  void decide_run(const rs::core::CostFunction& f, int count,
                  std::span<int> decisions, std::span<int> lower,
                  std::span<int> upper);

  /// Same, with f already in exact convex-PWL form — the entry point for
  /// the fleet's shared cross-tenant conversion cache (fleet/form_cache.hpp):
  /// tenants sharing a slot cost convert it once and every session consumes
  /// the cached form.  Decisions are bit-identical to the CostFunction
  /// overload (the tracker consumes the identical form either way) while
  /// pwl_path_open().
  void decide_run(const rs::core::ConvexPwl& f, int count,
                  std::span<int> decisions, std::span<int> lower,
                  std::span<int> upper);

  /// True while a step may consume a cached convex-PWL form bit-identically
  /// to its CostFunction: the session is reset, not pinned dense, and its
  /// tracker has not fallen back (or been degraded) to the dense backend.
  bool pwl_path_open() const;

  /// Keeps a rewind buffer of the last `capacity` decide/decide_run inputs
  /// on the underlying tracker (offline/work_function.hpp §rewind), the
  /// state behind TenantSession::what_if probes.  Survives reset()/
  /// restore() (re-enabled on the fresh tracker; rewind state itself is
  /// never checkpointed).  Pass 0 to disable.
  void enable_what_if(int capacity);

  /// The live tracker (nullptr before the first reset()/restore()) — read
  /// only; what-if consumers clone() it rather than mutate it.
  const rs::offline::WorkFunctionTracker* tracker() const noexcept {
    return tracker_.has_value() ? &*tracker_ : nullptr;
  }

  /// The eq. 13 projection state x^LCP of the most recent slot.
  int current_state() const noexcept { return current_; }

  /// Permanently switches the underlying tracker to the dense streaming
  /// backend, materializing the current work-function pair — the fleet
  /// controller's PWL → dense degradation rung, for any window.  Returns
  /// false when this session cannot degrade (constructed with the
  /// forced-kPwl backend, or not reset yet); subsequent decisions agree
  /// with the PWL path up to FP association order (bitwise on
  /// integer-valued instances, DESIGN.md §8).
  bool degrade_to_dense();

  /// Serialized session state (core/checkpoint.hpp container): the eq. 13
  /// projection state plus the embedded work-function tracker snapshot.
  /// w = 0 writes kind kLcpCheckpointKind; w > 0 writes
  /// kWindowedLcpCheckpointKind, which also records the context (m, beta).
  /// A session restored at slot t decides the remaining slots
  /// bitwise-identically to the uninterrupted run.  The windowed sliding
  /// form cache is *not* serialized — it is a pure conversion memo
  /// ("correctness never depends on the cache"), so a restored session
  /// re-converts its first window and then re-warms; decisions are
  /// unaffected, including snapshots taken mid-window.
  std::vector<std::uint8_t> snapshot() const;

  /// Appends the snapshot() envelope to `w` as a nested checkpoint, in
  /// place (see WorkFunctionTracker::write_snapshot).
  void write_snapshot(rs::core::CheckpointWriter& w) const;

  /// Replaces this session's state from snapshot() bytes, the crash-recovery
  /// counterpart of reset().  Each kind restores only into a session of
  /// the matching window (w = 0 or w > 0; else core::CheckpointFormatError).
  /// `context` must match the snapshotted session — same m, beta, and
  /// constructed backend — else core::CheckpointMismatchError; malformed or
  /// corrupted bytes raise the reader's typed errors and leave no
  /// partially-restored state observable (the session is only mutated
  /// after full validation).
  void restore(const OnlineContext& context,
               std::span<const std::uint8_t> bytes);

 private:
  std::uint32_t checkpoint_kind() const noexcept;
  void check_run_args(int count, std::span<const int> decisions,
                      std::span<const int> lower,
                      std::span<const int> upper) const;
  void project_run(int count, std::span<int> decisions, std::span<int> lower,
                   std::span<int> upper);
  void write_snapshot_payload(rs::core::CheckpointWriter& w) const;

  // The w > 0 step on the first w slots of `lookahead`: the PWL pass over
  // the sliding form cache when they convert, else the dense completion
  // pass.
  int decide_window(const rs::core::CostPtr& f,
                    std::span<const rs::core::CostPtr> lookahead);
  // Resolves [f, lookahead...] into form_cache_ through the sliding cache;
  // false when a cost has no form under this session's budget.
  bool slide_forms(const rs::core::CostPtr& f,
                   std::span<const rs::core::CostPtr> lookahead);
  int decide_window_pwl(const rs::core::ConvexPwl& form,
                        std::span<const rs::core::ConvexPwl* const> window);
  // Projects onto [min, max] of the windowed bounds: with predictions the
  // corridor may invert on pathological ties.
  int project_window(int lower, int upper);

  Backend backend_;
  std::size_t window_;
  OnlineContext context_;
  // In-place tracker (workspace-backed): reset() re-emplaces without a heap
  // allocation, so replay harnesses can reset per run for free.
  std::optional<rs::offline::WorkFunctionTracker> tracker_;
  int current_ = 0;
  int last_lower_ = 0;
  int last_upper_ = 0;
  int what_if_capacity_ = 0;  // > 0: keep a rewind buffer on the tracker

  // Windowed (w > 0) state; empty and unused at w = 0.
  //
  // Sliding conversion cache for decide(f, lookahead): after a PWL step it
  // holds the forms of that step's [revealed, lookahead...] sequence, keyed
  // by cost identity.  As the window slides by one slot, this step's
  // revealed cost and all but the last lookahead slot are cache hits, moved
  // down in place, so each slot of a streaming replay is converted exactly
  // once instead of up to w+1 times (the regression test counts
  // as_convex_pwl calls) and never copied.  Entries hold the CostPtr so a
  // key address can never be recycled while cached.
  std::vector<std::pair<rs::core::CostPtr, rs::core::ConvexPwl>> form_cache_;
  // Per-step scratch of the PWL path, reused so a warm step is
  // allocation-free: the window's form pointers, the completion costs
  // D^L / D^U, and the sums Ĉ^B + D^B whose argmins are the bounds.
  std::vector<const rs::core::ConvexPwl*> window_scratch_;
  rs::core::ConvexPwl d_lower_;
  rs::core::ConvexPwl d_upper_;
  rs::core::ConvexPwl sum_lower_;
  rs::core::ConvexPwl sum_upper_;
};

/// Replays LCP over a dense instance, feeding the tracker one contiguous
/// row per slot.  With a lazily-materialized DenseProblem, row t is
/// evaluated exactly when slot t is revealed, so the no-lookahead contract
/// of the online setting is preserved; with an eager one the replay is a
/// pure table walk (the fast path for repeated analysis runs).  Produces
/// the same schedule as run_online(Lcp, p).
rs::core::Schedule run_lcp_dense(const rs::core::DenseProblem& dense);

/// Replays LCP over cached convex-PWL forms, feeding the tracker one
/// pre-converted form per slot — the PWL analog of run_lcp_dense, and the
/// batch engine's routing target: K jobs on one instance replay from one
/// PwlProblem instead of re-converting every slot per job.  Produces the
/// same schedule as run_online(Lcp(kPwl), p).
rs::core::Schedule run_lcp_pwl(const rs::core::PwlProblem& pwl);

}  // namespace rs::online
