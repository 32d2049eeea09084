// Shared cross-tenant conversion cache (DESIGN.md §12).
//
// Fleets commonly multiplex tenants over a small family of slot-cost
// shapes: scenario generators intern one CostPtr per distinct λ level, and
// every tenant fed that level receives the *same* CostFunction object.
// Without sharing, each tenant's tracker re-derives the convex-PWL form of
// that object independently (one as_convex_pwl per tenant per first-sight),
// and the conversion — not the advance — dominates ingest for
// dispatch-heavy cost families.
//
// SlotFormCache converts each distinct (cost object, m) pair exactly once,
// fleet-wide, and pins the CostPtr so the keyed address can never be
// recycled by a later allocation.  Consumers (TenantSession::offer_run)
// attach the cached form to the queued entry.  Plain tenants feed it
// through Lcp::decide_run(ConvexPwl); windowed tenants hand the revealed
// slot's form and their lookahead's forms to Lcp::decide, so a
// windowed step neither converts nor copies a form.  Both are
// bit-identical to the CostFunction paths on the PWL path (the session
// would derive the identical forms itself under the same budget).
// Negative results are cached too: a cost with no compact form under the
// kAuto budget maps to nullptr, and callers fall back to the CostFunction
// path (the tracker then applies its own backend policy, including the
// forced-kPwl unbounded budget).
//
// Thread safety: all members are safe to call concurrently (offer paths
// run from producer threads while ticks run elsewhere).  The cache is
// bounded; once full it stops inserting and returns nullptr for new keys —
// callers degrade to per-use conversion, never to an unbounded map.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "core/convex_pwl.hpp"
#include "core/cost_function.hpp"

namespace rs::fleet {

class SlotFormCache {
 public:
  /// `capacity` bounds the number of distinct (cost, m) entries (>= 1).
  explicit SlotFormCache(std::size_t capacity = 4096);

  /// The exact convex-PWL form of `cost` on domain [0, m], converted under
  /// the kAuto budget (core::compact_pwl_budget_for) on first sight and
  /// cached — the CostPtr is pinned for the cache's lifetime.  Returns
  /// nullptr when the cost has no compact form (cached negatively), when
  /// the cache is full and the key is new, or on a null/invalid argument.
  std::shared_ptr<const rs::core::ConvexPwl> form_for(
      const rs::core::CostPtr& cost, int m);

  /// Conversion attempts (== distinct keys ever inserted).
  std::uint64_t conversions() const;

  /// Lookups answered from an existing entry.
  std::uint64_t hits() const;

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    rs::core::CostPtr pinned;  // keeps the keyed address alive and unique
    std::shared_ptr<const rs::core::ConvexPwl> form;  // nullptr: no compact form
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::map<std::pair<const rs::core::CostFunction*, int>, Entry> entries_;
  std::uint64_t conversions_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace rs::fleet
