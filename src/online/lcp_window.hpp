// Completion-cost kernels of LCP with a prediction window (Sections 3 and
// 5.4); the windowed step itself is Lcp with w > 0 (online/lcp.hpp).
//
// D^B_τ(x) is the optimal cost of serving the window f_{τ+1}..f_{τ+w}
// starting from state x under accounting B: up-charging (L) or
// down-charging (U), with the horizon end after the window free.  The
// windowed bounds are the argmins of Ĉ^B_τ + D^B_τ.
#pragma once

#include <span>
#include <vector>

#include "core/convex_pwl.hpp"
#include "core/cost_function.hpp"

namespace rs::online {

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
/// window pass is O(w·(K + B)) — independent of m.  A windowed Lcp takes
/// this path automatically whenever the revealed cost and the entire
/// lookahead convert compactly (and falls back to the dense pass,
/// permanently, on the first step where they do not).
rs::core::ConvexPwl completion_costs_pwl(
    std::span<const rs::core::ConvexPwl> window, int m, double beta,
    bool charge_up);

/// In-place variant over form pointers, writing into `d` and reusing its
/// capacity — the per-step window pass of a windowed Lcp.
void completion_costs_pwl(std::span<const rs::core::ConvexPwl* const> window,
                          int m, double beta, bool charge_up,
                          rs::core::ConvexPwl& d);

}  // namespace rs::online
