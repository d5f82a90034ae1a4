#include "storage/buffer_pool.h"

#include <shared_mutex>
#include <string>

#include "common/failpoint.h"

namespace sentinel::storage {

BufferPool::BufferPool(DiskManager* disk, std::size_t capacity)
    : disk_(disk), capacity_(capacity) {
  frames_.reserve(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    frames_.push_back(std::make_unique<Page>());
    free_frames_.push_back(capacity - 1 - i);
  }
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    Page* page = frames_[it->second].get();
    page->Pin();
    TouchLocked(it->second);
    return page;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto frame = GetFreeFrameLocked();
  if (!frame.ok()) return frame.status();
  Page* page = frames_[*frame].get();
  obs::Probe probe(ins_, {.span = obs::SpanKind::kPageRead},
                   [page_id] { return "page " + std::to_string(page_id); });
  Status read = disk_->ReadPage(page_id, page);
  probe.End();
  if (!read.ok()) {
    // The frame holds no page: hand it back, or the pool leaks it for good.
    free_frames_.push_back(*frame);
    return read;
  }
  page->set_page_id(page_id);
  page->Pin();
  page_table_[page_id] = *frame;
  TouchLocked(*frame);
  return page;
}

Result<Page*> BufferPool::NewPage() {
  auto page_id = disk_->AllocatePage();
  if (!page_id.ok()) return page_id.status();
  std::lock_guard<std::mutex> lock(mu_);
  auto frame = GetFreeFrameLocked();
  if (!frame.ok()) return frame.status();
  Page* page = frames_[*frame].get();
  page->Reset();
  page->set_page_id(*page_id);
  page->set_dirty(true);
  page->Pin();
  page_table_[*page_id] = *frame;
  TouchLocked(*frame);
  return page;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::InvalidArgument("unpin of non-resident page " +
                                   std::to_string(page_id));
  }
  Page* page = frames_[it->second].get();
  if (page->pin_count() <= 0) {
    return Status::InvalidArgument("unpin of unpinned page " +
                                   std::to_string(page_id));
  }
  page->Unpin();
  if (dirty) page->set_dirty(true);
  return Status::OK();
}

Status BufferPool::FlushPage(PageId page_id) {
  std::vector<std::size_t> dirty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = page_table_.find(page_id);
    if (it != page_table_.end()) TakeDirtyLocked(it->second, &dirty);
  }
  return WriteBack(dirty);
}

Status BufferPool::FlushAll() {
  std::vector<std::size_t> dirty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [page_id, frame] : page_table_) {
      (void)page_id;
      TakeDirtyLocked(frame, &dirty);
    }
  }
  return WriteBack(dirty);
}

void BufferPool::TakeDirtyLocked(std::size_t frame,
                                 std::vector<std::size_t>* out) {
  Page* page = frames_[frame].get();
  if (!page->is_dirty()) return;
  // Pinned, the page cannot be evicted while WriteBack waits for its latch.
  // Clearing the flag now (not after the write) keeps a change made during
  // the write: its unpin marks the page dirty again.
  page->Pin();
  page->set_dirty(false);
  out->push_back(frame);
}

Status BufferPool::WriteBack(const std::vector<std::size_t>& frames) {
  // Runs without mu_: a writer holding a page latch may be waiting for mu_
  // (HeapFile::Insert calls NewPage), so the pool must not wait for that
  // latch while holding it.
  Status result;
  for (std::size_t frame : frames) {
    Page* page = frames_[frame].get();
    if (result.ok()) {
      std::shared_lock<std::shared_mutex> latch(page->latch());
      result = disk_->WritePage(*page);
    }
    std::lock_guard<std::mutex> lock(mu_);
    page->Unpin();
    // After a failure, this page and the unwritten rest stay dirty.
    if (!result.ok()) page->set_dirty(true);
  }
  return result;
}

std::size_t BufferPool::resident_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_table_.size();
}

std::size_t BufferPool::dirty_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dirty = 0;
  for (const auto& [page_id, frame] : page_table_) {
    (void)page_id;
    if (frames_[frame]->is_dirty()) ++dirty;
  }
  return dirty;
}

Result<std::size_t> BufferPool::GetFreeFrameLocked() {
  if (!free_frames_.empty()) {
    std::size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  // Evict the least recently used unpinned frame.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    std::size_t frame = *it;
    Page* page = frames_[frame].get();
    if (page->pin_count() > 0) continue;
    if (page->is_dirty()) {
      // Eviction writes a dirty page outside any commit path; a failure
      // here must surface to the caller, never silently drop the page.
      // Unpinned, the page has no latch holder, so no latch is taken.
      SENTINEL_FAILPOINT("bufferpool.evict");
      SENTINEL_RETURN_NOT_OK(disk_->WritePage(*page));
      page->set_dirty(false);
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
    page_table_.erase(page->page_id());
    lru_.erase(std::next(it).base());
    lru_pos_.erase(frame);
    return frame;
  }
  return Status::ResourceExhausted("all buffer pool frames are pinned");
}

void BufferPool::TouchLocked(std::size_t frame) {
  auto pos = lru_pos_.find(frame);
  if (pos != lru_pos_.end()) lru_.erase(pos->second);
  lru_.push_front(frame);
  lru_pos_[frame] = lru_.begin();
}

}  // namespace sentinel::storage
