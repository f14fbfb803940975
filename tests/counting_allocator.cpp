// Counting replacements of the global allocation functions, linked into
// test_allocation only. They live in their own translation unit so the
// compiler never inlines them into the code under test: inlined, GCC pairs
// a `new` it can see with the `free` inside the replacement `delete` and
// reports a mismatched deallocation that is not there.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

std::size_t counted_allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Counting global allocator. Covers the throwing, nothrow, and sized/array
// forms so no allocation path in the process escapes the counter.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

