// Allocation accounting for tests. alloc_counter.cpp replaces the global
// operator new with one that tallies, per thread, the allocations (and
// their requested bytes) made while an AllocationCounter is alive on that
// thread. Replacing operator new is program-wide, so only the test_alloc
// binary links it.
#pragma once

#include <cstdint>

namespace rnb::testing {

class AllocationCounter {
 public:
  /// Start counting on the calling thread, from zero.
  AllocationCounter() noexcept;
  /// Stop counting.
  ~AllocationCounter();

  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  /// operator new calls on this thread so far.
  std::uint64_t allocations() const noexcept;
  /// Bytes those calls requested.
  std::uint64_t bytes() const noexcept;
};

}  // namespace rnb::testing
