// Anonymous memory mappings for storage-engine bulk memory.
//
// Slab pages and the swiss table's control bytes and slots come from mmap,
// not malloc. A fresh mapping is zero and not resident until first
// touched, and munmap hands it back to the OS the moment its table dies.
// Blocks this large freed through malloc instead raise glibc's dynamic
// mmap threshold; later blocks then come from malloc's arenas, which keep
// freed memory, so a process that builds and tears down server fleets
// repeatedly would carry each dead fleet's pages in its RSS.
#pragma once

#include <cstddef>

namespace rnb::kv {

class PageMapping {
 public:
  PageMapping() noexcept = default;
  /// Map `bytes` (> 0, rounded up to whole pages) of zeroed private
  /// memory. Throws std::bad_alloc when the kernel refuses.
  explicit PageMapping(std::size_t bytes);
  ~PageMapping();

  PageMapping(PageMapping&& other) noexcept;
  PageMapping& operator=(PageMapping&& other) noexcept;
  PageMapping(const PageMapping&) = delete;
  PageMapping& operator=(const PageMapping&) = delete;

  char* data() const noexcept { return data_; }

 private:
  char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace rnb::kv
