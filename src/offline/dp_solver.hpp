// Exact dynamic program over the full state space.
//
// Computes W_t(x) = min_{x'} { W_{t-1}(x') + β(x − x')⁺ } + f_t(x) for all
// x in {0,..,m}.  The inner minimum splits into a prefix part (x' <= x, pay
// β per powered-up server) and a suffix part (x' >= x, free power-down), so
// one time step costs O(m) using running prefix/suffix minima — O(T·m)
// total, the standard baseline the paper's O(T·log m) algorithm improves on
// (a naive shortest-path in the Figure-1 graph would be O(T·m²)).
//
// Backends:
//   kDense      — the O(T·m) table DP above with parent-pointer schedule
//                 reconstruction; the reference tie-breaking.
//   kConvexAuto — convex fast path: W_t is exactly the bound work function
//                 Ĉ^L_t (eq. 11), so when every slot admits a compact
//                 convex-PWL form the labels are maintained as convex
//                 piecewise-linear functions (per-step cost independent of
//                 m), the optimal cost is min Ĉ^L_T, and an optimal
//                 schedule follows from the Lemma-11 backward projection
//                 through the per-step bound corridor.  Instances that do
//                 not convert fall back to the same work-function recursion
//                 on dense rows (still O(T·m), no parent table).  The cost
//                 agrees with kDense up to FP association order
//                 (bit-identical on integer instances); the schedule is
//                 optimal but tie-breaks per Lemma 11 rather than per the
//                 parent-pointer reconstruction.
#pragma once

#include "core/dense_problem.hpp"
#include "core/pwl_problem.hpp"
#include "offline/solver.hpp"

namespace rs::offline {

class DpSolver final : public OfflineSolver {
 public:
  enum class Backend { kDense, kConvexAuto };

  DpSolver() : DpSolver(Backend::kDense) {}
  explicit DpSolver(Backend backend) : backend_(backend) {}

  /// Streams one dense row per step through CostFunction::eval_row — the
  /// per-step cost is a contiguous O(m) scan with no virtual dispatch in
  /// the inner loop.  Under kConvexAuto, compact convex instances skip the
  /// rows entirely (see Backend above).
  OfflineResult solve(const rs::core::Problem& p) const override;

  /// Runs on a pre-built dense table; use when several solvers (or repeated
  /// runs) share one instance and the rows should be evaluated only once.
  /// Always the dense backend (the rows already exist).
  OfflineResult solve(const rs::core::DenseProblem& dense) const;

  /// Runs on pre-converted convex-PWL forms; use when several solvers (or
  /// repeated runs) share one instance and the slots should be converted
  /// only once (the batch engine's PwlProblem cache).  Always the convex
  /// fast path (the forms already exist), regardless of `backend`.
  OfflineResult solve(const rs::core::PwlProblem& pwl) const;

  /// O(m)-memory variant that skips parent bookkeeping (O(K)-memory on the
  /// convex fast path); used by the scaling benchmarks where T·m parent
  /// tables would not fit.
  double solve_cost(const rs::core::Problem& p) const override;
  double solve_cost(const rs::core::DenseProblem& dense) const;
  double solve_cost(const rs::core::PwlProblem& pwl) const;

  Backend backend() const noexcept { return backend_; }

  std::string name() const override { return "dp"; }

 private:
  Backend backend_ = Backend::kDense;
};

}  // namespace rs::offline
