// Per-pool memory accounting and process RSS sampling.
//
// The paper's §8 names large-dataset efficiency as the open problem, and
// the heap structures that grow with the dataset are the DP scratch
// tables (src/match/scratch.h) and the kernel tables (src/match/). The
// posting lists live in the mapped seqhidb image, which only RSS sees.
// MemTracker gives each heap structure a named pool of three relaxed
// atomics (current bytes, peak bytes, allocation count), fed by
// PoolAllocator — a stateless std::allocator wrapper that the vector
// typedefs plug in. The result
// is exact byte-level accounting of the paths that matter, surfaced as
// the `memory` block in --stats-json, in BENCH JSON, and gated by
// tools/bench_compare.
//
// CurrentRssBytes/PeakRssBytes read /proc/self/status (VmRSS / VmHWM)
// with a getrusage(ru_maxrss) fallback, so the block also carries the
// whole-process truth the pools cannot see (mmap'd databases, the
// allocator's own slack).
//
// Under SEQHIDE_OBS_DISABLED the pool hooks compile to nothing: the
// allocator degenerates to std::allocator plus an inlined empty call,
// and every stat reads as zero. RSS sampling still works — it costs
// nothing unless called.
//
// Thread safety: all counters are relaxed atomics; Add/Sub are called
// from the parallel kernels' worker threads. Peaks are maintained with a
// CAS loop and are monotone between ResetPeaks() calls (tests only).

#ifndef SEQHIDE_OBS_TELEMETRY_MEM_TRACKER_H_
#define SEQHIDE_OBS_TELEMETRY_MEM_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace seqhide {
namespace obs {
namespace telemetry {

// Instrumented allocation pools. Keep kNumMemPools and MemPoolName() in
// sync when adding one.
enum class MemPool : size_t {
  kDpScratch = 0,     // DP rows/tables sized (n, m) — src/match/scratch.h
  kPostingList = 1,   // no allocator charges it; kept (reads 0) so the
                      // `memory` block's schema is stable
  kKernelTables = 2,  // per-symbol masks / pattern-trie arrays — src/match/
};
inline constexpr size_t kNumMemPools = 3;

const char* MemPoolName(MemPool pool);

// Plain-data view of one pool's counters.
struct MemPoolStats {
  uint64_t current_bytes = 0;
  uint64_t peak_bytes = 0;
  uint64_t allocs = 0;
};

class MemTracker {
 public:
  static void Add(MemPool pool, size_t bytes);
  static void Sub(MemPool pool, size_t bytes);
  static MemPoolStats Stats(MemPool pool);
  // Rewinds every pool's peak to its current value and zeroes the
  // allocation counts. For tests that assert growth of one code path.
  static void ResetPeaks();

 private:
  struct PoolCounters {
    std::atomic<uint64_t> current{0};
    std::atomic<uint64_t> peak{0};
    std::atomic<uint64_t> allocs{0};
  };
  static PoolCounters& Counters(MemPool pool);
};

#if !defined(SEQHIDE_OBS_DISABLED)

// std::allocator with byte accounting into `Pool`. Stateless, so vectors
// using it stay movable/swappable exactly like the plain-allocator ones
// and all instances compare equal.
template <typename T, MemPool Pool>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U, Pool>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = PoolAllocator<U, Pool>;
  };

  T* allocate(size_t n) {
    MemTracker::Add(Pool, n * sizeof(T));
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) noexcept {
    MemTracker::Sub(Pool, n * sizeof(T));
    std::allocator<T>().deallocate(p, n);
  }
};

#else  // SEQHIDE_OBS_DISABLED

// Accounting compiled out: identical layout and semantics to
// std::allocator, so the DpRow/DpTable typedefs cost nothing.
template <typename T, MemPool Pool>
class PoolAllocator : public std::allocator<T> {
 public:
  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U, Pool>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = PoolAllocator<U, Pool>;
  };
};

#endif  // SEQHIDE_OBS_DISABLED

template <typename T, typename U, MemPool Pool>
inline bool operator==(const PoolAllocator<T, Pool>&,
                       const PoolAllocator<U, Pool>&) noexcept {
  return true;
}
template <typename T, typename U, MemPool Pool>
inline bool operator!=(const PoolAllocator<T, Pool>&,
                       const PoolAllocator<U, Pool>&) noexcept {
  return false;
}

// Resident set size of this process, in bytes; 0 if unreadable.
uint64_t CurrentRssBytes();
// High-water RSS of this process, in bytes; 0 if unreadable.
uint64_t PeakRssBytes();

// Point-in-time copy of everything the memory block reports. Plain data.
struct MemorySnapshot {
  uint64_t current_rss_bytes = 0;
  uint64_t peak_rss_bytes = 0;
  MemPoolStats pools[kNumMemPools];

  static MemorySnapshot Capture();
};

}  // namespace telemetry
}  // namespace obs
}  // namespace seqhide

#endif  // SEQHIDE_OBS_TELEMETRY_MEM_TRACKER_H_
