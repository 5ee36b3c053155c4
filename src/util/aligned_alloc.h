// Minimal STL allocator handing out storage aligned to a fixed boundary.
//
// The dense/sparse linear-algebra containers (la::Matrix,
// la::SparseMatrix) use it at 64 bytes so the SIMD kernels can assume
// cache-line-aligned base pointers: full-width vector loads never
// straddle a line at offset 0, and buffers never share their first line
// with unrelated allocations. Row pointers at arbitrary column counts
// are still only 4-byte aligned, so kernels keep using unaligned load
// instructions — those run at aligned speed when the address happens to
// be aligned, which the allocator makes the common case.
//
// Memory comes from plain ::operator new, which is malloc's per-thread
// fast path; the aligned ::operator new(size, align_val_t) goes through
// glibc's memalign and costs several times as much per allocate/free
// pair. Each block is over-allocated by Alignment + one pointer: the
// returned address is the first Alignment boundary at least one pointer
// past the block's start, and the word just below it stores the block
// pointer that deallocate() frees. Under AddressSanitizer the allocator
// keeps the aligned operator new, so the slack bytes cannot hide a
// small overflow past the end of a buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define TURBO_ALIGNED_ALLOC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TURBO_ALIGNED_ALLOC_ASAN 1
#endif
#endif

namespace turbo::util {

template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");
  static_assert(Alignment >= sizeof(void*),
                "the block pointer is stored in the word below the data");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    // The same overflow contract as std::allocator, slack included.
    if (n > (std::numeric_limits<std::size_t>::max() - kSlack) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
#ifdef TURBO_ALIGNED_ALLOC_ASAN
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
#else
    void* block = ::operator new(n * sizeof(T) + kSlack);
    const std::uintptr_t data =
        (reinterpret_cast<std::uintptr_t>(block) + sizeof(void*) +
         Alignment - 1) &
        ~static_cast<std::uintptr_t>(Alignment - 1);
    reinterpret_cast<void**>(data)[-1] = block;
    return reinterpret_cast<T*>(data);
#endif
  }

  void deallocate(T* p, std::size_t) noexcept {
#ifdef TURBO_ALIGNED_ALLOC_ASAN
    ::operator delete(p, std::align_val_t{Alignment});
#else
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
#endif
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }

 private:
  static constexpr std::size_t kSlack = Alignment + sizeof(void*);
};

}  // namespace turbo::util
