#include "support/alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;
thread_local std::uint64_t t_bytes = 0;

}  // namespace

void* operator new(std::size_t n) {
  if (t_counting) {
    ++t_allocations;
    t_bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rnb::testing {

AllocationCounter::AllocationCounter() noexcept {
  t_allocations = 0;
  t_bytes = 0;
  t_counting = true;
}

AllocationCounter::~AllocationCounter() { t_counting = false; }

std::uint64_t AllocationCounter::allocations() const noexcept {
  return t_allocations;
}

std::uint64_t AllocationCounter::bytes() const noexcept { return t_bytes; }

}  // namespace rnb::testing
