// Thread-local scratch buffers: reusable allocation-free temporaries for hot
// kernels (matmul accumulator panels, crossbar partial sums, quantized input
// staging).
//
// Buffer<T> checks a vector out of a per-thread free list on construction
// and returns it on destruction, so a kernel that runs a million times pays
// for at most a handful of allocations per worker thread — after warm-up the
// checkout is a pointer swap. Contents are unspecified on checkout (the
// previous user's data may still be there); callers that need zeros fill
// explicitly, exactly as they would with a fresh allocation they intend to
// reuse.
//
// Concurrency: the pool is thread_local, so checkouts never contend and the
// facility is trivially TSan-clean. Nested checkouts on one thread receive
// distinct vectors (the free list simply runs dry and allocates). Pool
// worker threads keep their cached buffers for the life of the worker; a
// pool resize (parallel::set_thread_count) retires workers and frees their
// caches via normal TLS destruction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace reramdl::scratch {

// ---- Arena accounting -------------------------------------------------------
//
// Process-wide byte ledger for the training-step workspace arenas
// (tensor/workspace.hpp). Every arena reports capacity growth here, so tests
// and the training bench can assert the zero-steady-state-allocation
// property globally: after the warm-up batch, arena_growth_events() must
// stop moving. Plain relaxed atomics — the ledger is a diagnostic, ordering
// against the allocations themselves doesn't matter.

namespace detail {
inline std::atomic<std::size_t>& arena_bytes() {
  static std::atomic<std::size_t> v{0};
  return v;
}
inline std::atomic<std::uint64_t>& arena_growths() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}
}  // namespace detail

inline void arena_account_grow(std::size_t delta_bytes) {
  if (delta_bytes == 0) return;
  detail::arena_bytes().fetch_add(delta_bytes, std::memory_order_relaxed);
  detail::arena_growths().fetch_add(1, std::memory_order_relaxed);
}

inline void arena_account_release(std::size_t bytes) {
  detail::arena_bytes().fetch_sub(bytes, std::memory_order_relaxed);
}

// Total bytes currently reserved across all live arenas.
inline std::size_t arena_bytes_reserved() {
  return detail::arena_bytes().load(std::memory_order_relaxed);
}

// Number of capacity-growth events since process start (never decreases).
inline std::uint64_t arena_growth_events() {
  return detail::arena_growths().load(std::memory_order_relaxed);
}

// ---- Buffer ledger ----------------------------------------------------------
//
// Monotonic counters mirroring the arena ledger above, but for the
// thread-local Buffer<T> pools: every checkout that has to grow its backing
// vector (a pool miss or an undersized pooled vector) books the added bytes
// and one growth event. Steady-state kernels must stop moving these after
// warm-up, which the tensor tests assert for matmul the same way the
// training bench asserts arena_growth_events(). Monotonic on purpose: pool
// retirement (worker TLS destruction) frees memory but never un-counts it,
// so "stopped growing" is a one-sided, race-free check.

namespace detail {
inline std::atomic<std::size_t>& buffer_bytes() {
  static std::atomic<std::size_t> v{0};
  return v;
}
inline std::atomic<std::uint64_t>& buffer_growths() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}
}  // namespace detail

inline void buffer_account_grow(std::size_t delta_bytes) {
  if (delta_bytes == 0) return;
  detail::buffer_bytes().fetch_add(delta_bytes, std::memory_order_relaxed);
  detail::buffer_growths().fetch_add(1, std::memory_order_relaxed);
}

// Total bytes ever allocated into scratch buffers (never decreases).
inline std::size_t buffer_bytes_allocated() {
  return detail::buffer_bytes().load(std::memory_order_relaxed);
}

// Number of backing-store growths since process start (never decreases).
inline std::uint64_t buffer_growth_events() {
  return detail::buffer_growths().load(std::memory_order_relaxed);
}

namespace detail {

template <typename T>
inline std::vector<std::vector<T>>& tls_pool() {
  thread_local std::vector<std::vector<T>> pool;
  return pool;
}

}  // namespace detail

template <typename T>
class Buffer {
 public:
  explicit Buffer(std::size_t n) : size_(n) {
    auto& pool = detail::tls_pool<T>();
    if (!pool.empty()) {
      v_ = std::move(pool.back());
      pool.pop_back();
    }
    if (v_.size() < n) {
      const std::size_t before = v_.capacity();
      v_.resize(n);
      if (v_.capacity() > before)
        buffer_account_grow((v_.capacity() - before) * sizeof(T));
    }
  }

  ~Buffer() {
    auto& pool = detail::tls_pool<T>();
    // Cap the free list so pathological checkout patterns can't hoard
    // memory; steady-state kernels use far fewer simultaneous buffers.
    if (pool.size() < kMaxPooled) pool.push_back(std::move(v_));
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  T* data() { return v_.data(); }
  const T* data() const { return v_.data(); }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return v_[i]; }
  const T& operator[](std::size_t i) const { return v_[i]; }

  T* begin() { return v_.data(); }
  T* end() { return v_.data() + size_; }

 private:
  static constexpr std::size_t kMaxPooled = 8;

  std::vector<T> v_;
  std::size_t size_ = 0;
};

}  // namespace reramdl::scratch
