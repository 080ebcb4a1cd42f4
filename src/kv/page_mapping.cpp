#include "kv/page_mapping.hpp"

#include <sys/mman.h>

#include <new>
#include <utility>

#include "common/error.hpp"

namespace rnb::kv {

PageMapping::PageMapping(std::size_t bytes) : size_(bytes) {
  RNB_REQUIRE(bytes > 0);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<char*>(p);
}

PageMapping::~PageMapping() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

PageMapping::PageMapping(PageMapping&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

PageMapping& PageMapping::operator=(PageMapping&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

}  // namespace rnb::kv
