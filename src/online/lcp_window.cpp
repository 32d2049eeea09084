// rs-lint: minmax-audited — the windowed work-function folds are approved
// branch-free kernels: a NaN slot cost is rejected upstream (tenant ingest
// probes, engine NaN classification) before it can reach these labels, and
// the RIGHTSIZER_AUDIT tracker checks pin the labels NaN-free
// (DESIGN.md §13).
#include "online/lcp_window.hpp"

#include <algorithm>

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

}  // namespace rs::online
