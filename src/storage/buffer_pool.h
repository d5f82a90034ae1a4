#ifndef SENTINEL_STORAGE_BUFFER_POOL_H_
#define SENTINEL_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/probe.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace sentinel::storage {

/// Fixed-capacity page cache with LRU replacement of unpinned frames.
///
/// Callers must bracket page use with Fetch/New and Unpin; a pinned frame is
/// never evicted. The frame table is guarded by a single pool mutex
/// (adequate for the workloads Sentinel drives through it; the active layer
/// is the hot path, not the buffer pool); page contents by each page's latch
/// (Page::latch). The pool never waits for a page latch while it holds its
/// mutex.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, std::size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the frame for `page_id`, reading it from disk on miss. The frame
  /// is returned pinned.
  Result<Page*> FetchPage(PageId page_id);

  /// Allocates a new page on disk and returns its (pinned, dirty) frame.
  Result<Page*> NewPage();

  /// Releases one pin; `dirty` marks the frame as modified.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Writes the frame for `page_id` to disk if present and dirty.
  Status FlushPage(PageId page_id);

  /// Writes all dirty frames to disk.
  Status FlushAll();

  std::size_t capacity() const { return capacity_; }
  /// Number of resident pages (for tests/benchmarks).
  std::size_t resident_count() const;
  /// Number of resident pages with unwritten modifications (checkpoint
  /// pressure gauge; scans the frame table under the pool latch, which is
  /// fine at watchdog sampling rates).
  std::size_t dirty_count() const;
  // Counters are written under the pool latch but read lock-free by stats
  // surfaces, so they are relaxed atomics.
  std::uint64_t hit_count() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t miss_count() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t eviction_count() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Attaches the database's instruments; disk reads on miss are probed
  /// (page_read span).
  void set_instruments(const obs::Instruments& instruments) {
    std::lock_guard<std::mutex> lock(mu_);
    ins_ = instruments;
  }

 private:
  // Picks a frame to (re)use, evicting the LRU unpinned page if needed.
  // Requires mu_ held.
  Result<std::size_t> GetFreeFrameLocked();
  void TouchLocked(std::size_t frame);
  // Pins `frame` and clears its dirty flag if it is dirty, queuing it for
  // WriteBack. Requires mu_ held.
  void TakeDirtyLocked(std::size_t frame, std::vector<std::size_t>* out);
  // Writes the queued frames to disk, each under its shared page latch, and
  // unpins them; stops writing at the first failure. Requires mu_ not held.
  Status WriteBack(const std::vector<std::size_t>& frames);

  DiskManager* disk_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Page>> frames_;
  std::unordered_map<PageId, std::size_t> page_table_;
  std::list<std::size_t> lru_;  // front == most recently used
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> lru_pos_;
  std::vector<std::size_t> free_frames_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  obs::Instruments ins_;  // guarded by mu_
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_BUFFER_POOL_H_
