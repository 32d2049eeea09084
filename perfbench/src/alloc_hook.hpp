// Heap-allocation counter: the benchmark binary replaces the global
// operator new, and every allocation made while counting is on lands in one
// process-wide atomic counter, from whichever thread allocates.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// Allocations counted so far (operator new and new[], every overload).
std::uint64_t count() noexcept;

/// Counts the allocations made while it is alive; restores the previous
/// counting state on destruction.  With no Counter alive, operator new costs
/// one relaxed load more than malloc, so uncounted phases run unperturbed.
class Counter {
 public:
  Counter() noexcept;
  ~Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;
  std::uint64_t value() const noexcept { return count() - start_; }

 private:
  bool was_on_;
  std::uint64_t start_;
};

}  // namespace perfbench::alloc
