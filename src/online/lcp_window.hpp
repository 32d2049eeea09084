// LCP with a finite prediction window (Sections 3 and 5.4).
//
// At time τ the algorithm additionally knows f_{τ+1}..f_{τ+w}.  Following
// Lin et al., the bounds become the τ-th components of optimal solutions of
// the horizon-(τ+w) truncated problems:
//
//   x^{L,w}_τ = smallest x_τ over minimizers of C^L_{τ+w}
//   x^{U,w}_τ = largest  x_τ over minimizers of C^U_{τ+w}
//
// computed as argmin_x [ Ĉ^B_τ(x) + D^B_τ(x) ], where D^B_τ(x) is the
// optimal completion cost of serving the window starting from state x under
// accounting B (up-charging for L, down-charging for U).  The completion
// pass costs O(w·m) per step; w = 0 reduces exactly to LCP.
//
// Theorem 10 shows no constant window improves the competitive ratio on
// stretched instances; the E9 experiment reproduces this, while the E10
// trace study shows the practical benefit on real-shaped workloads.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "offline/work_function.hpp"
#include "online/online_algorithm.hpp"

namespace rs::online {

class WindowedLcp final : public OnlineAlgorithm {
 public:
  /// `backend` pins the tracker/completion backend; kAuto (default) uses
  /// the m-independent convex-PWL pass whenever the revealed cost and the
  /// whole lookahead convert compactly, falling back to the dense O(w·m)
  /// pass otherwise.  Note the tie caveat of DESIGN.md §8: on instances
  /// with exact cost plateaus the two backends may break corridor ties
  /// differently (both remain valid windowed-LCP runs); pin kDense for
  /// bit-reproducibility against dense references.
  explicit WindowedLcp(rs::offline::WorkFunctionTracker::Backend backend =
                           rs::offline::WorkFunctionTracker::Backend::kAuto)
      : backend_(backend) {}

  std::string name() const override { return "lcp_window"; }
  void reset(const OnlineContext& context) override;
  int decide(const rs::core::CostPtr& f,
             std::span<const rs::core::CostPtr> lookahead) override;

  /// decide() with the convex-PWL forms of f and of each lookahead cost
  /// supplied by the caller — the fleet's shared SlotFormCache
  /// (fleet/form_cache.hpp) — so a PWL step neither converts nor copies a
  /// form, and touches no heap once warm.  Each form must be exactly what
  /// as_convex_pwl(m, core::compact_pwl_budget_for(m)) returns for its
  /// cost (the cache's rule), which makes the decisions bitwise those of
  /// decide(f, lookahead).  A null form anywhere — no compact form — runs
  /// decide(f, lookahead) instead: its own conversion, and the dense latch
  /// when that fails too.  lookahead_forms.size() == lookahead.size().
  int decide(const rs::core::CostPtr& f,
             std::span<const rs::core::CostPtr> lookahead,
             const rs::core::ConvexPwl* form,
             std::span<const rs::core::ConvexPwl* const> lookahead_forms);

  int last_lower() const { return last_lower_; }
  int last_upper() const { return last_upper_; }

  /// Serialized session state (core/checkpoint.hpp container, kind
  /// kWindowedLcpCheckpointKind): the snapshotted context, projection state,
  /// and the embedded tracker snapshot.  The sliding form cache is *not*
  /// serialized — it is a pure conversion memo ("correctness never depends
  /// on the cache"), so a restored session re-converts its first window and
  /// then re-warms; decisions are unaffected, including snapshots taken
  /// mid-window.
  std::vector<std::uint8_t> snapshot() const;

  /// Appends the snapshot() envelope to `w` as a nested checkpoint, in
  /// place (see WorkFunctionTracker::write_snapshot).
  void write_snapshot(rs::core::CheckpointWriter& w) const;

  /// Replaces this session's state from snapshot() bytes; the crash-recovery
  /// counterpart of reset().  `context` must match the snapshotted session
  /// (m, beta, constructed backend) else core::CheckpointMismatchError;
  /// malformed/corrupted bytes raise the reader's typed errors before any
  /// state is mutated.
  void restore(const OnlineContext& context,
               std::span<const std::uint8_t> bytes);

 private:
  // True while a step may take the PWL path: not pinned dense and the
  // tracker has not fallen back to dense.
  bool pwl_path_open() const;
  // Resolves [f, lookahead...] into form_cache_ through the sliding cache;
  // false when a cost has no form under this session's budget.
  bool slide_forms(const rs::core::CostPtr& f,
                   std::span<const rs::core::CostPtr> lookahead);
  int decide_pwl(const rs::core::ConvexPwl& form,
                 std::span<const rs::core::ConvexPwl* const> window);
  void write_snapshot_payload(rs::core::CheckpointWriter& w) const;

  OnlineContext context_;
  rs::offline::WorkFunctionTracker::Backend backend_ =
      rs::offline::WorkFunctionTracker::Backend::kAuto;
  std::optional<rs::offline::WorkFunctionTracker> tracker_;
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
  int current_ = 0;
  int last_lower_ = 0;
  int last_upper_ = 0;
};

/// Optimal completion cost D^B(x) over the window under the two accounting
/// schemes (exposed for tests).  `window` holds f_{τ+1}.. in order; the
/// horizon end after the window is free.  Returned vector has m+1 entries.
std::vector<double> completion_costs(
    std::span<const rs::core::CostPtr> window, int m, double beta,
    bool charge_up);

/// In-place variant writing into `d` (m+1 entries); scratch comes from the
/// thread workspace, so the per-step window pass is allocation-free.
void completion_costs(std::span<const rs::core::CostPtr> window, double beta,
                      bool charge_up, std::span<double> d);

/// Convex-PWL form of the same backward recursion: the window rows are
/// exact convex PWL functions, each backward step is an add plus a slope
/// clip into [−β, 0] (L-accounting) or [0, β] (U-accounting), so the whole
/// window pass is O(w·(K + B)) — independent of m.  WindowedLcp takes this
/// path automatically whenever the revealed cost and the entire lookahead
/// convert compactly (and falls back to the dense pass, permanently, on
/// the first step where they do not).
rs::core::ConvexPwl completion_costs_pwl(
    std::span<const rs::core::ConvexPwl> window, int m, double beta,
    bool charge_up);

/// In-place variant over form pointers, writing into `d` and reusing its
/// capacity — the per-step window pass of WindowedLcp.
void completion_costs_pwl(std::span<const rs::core::ConvexPwl* const> window,
                          int m, double beta, bool charge_up,
                          rs::core::ConvexPwl& d);

}  // namespace rs::online
