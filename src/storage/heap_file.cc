#include "storage/heap_file.h"

#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

namespace sentinel::storage {

namespace {

using Exclusive = std::unique_lock<std::shared_mutex>;
using Shared = std::shared_lock<std::shared_mutex>;

/// Pins `page_id`, runs `fn(SlottedPage&, Page&, bool* dirty)` under the
/// page latch held as `Latch`, then unpins with the dirty flag `fn` set.
template <typename Latch, typename Fn>
Status WithPage(BufferPool* pool, PageId page_id, Fn fn) {
  auto page = pool->FetchPage(page_id);
  if (!page.ok()) return page.status();
  bool dirty = false;
  Status st;
  {
    Latch latch((*page)->latch());
    SlottedPage sp(*page);
    st = fn(sp, **page, &dirty);
  }
  Status unpin = pool->UnpinPage(page_id, dirty);
  return st.ok() ? unpin : st;
}

}  // namespace

Result<PageId> HeapFile::Create(BufferPool* pool) {
  auto page = pool->NewPage();
  if (!page.ok()) return page.status();
  {
    Exclusive latch((*page)->latch());
    SlottedPage(*page).Init();
  }
  PageId id = (*page)->page_id();
  SENTINEL_RETURN_NOT_OK(pool->UnpinPage(id, /*dirty=*/true));
  return id;
}

Result<Rid> HeapFile::Insert(const std::vector<std::uint8_t>& record,
                             PageId start_hint) {
  if (record.size() > SlottedPage::kMaxRecordSize) {
    return Status::InvalidArgument("record exceeds max size");
  }
  PageId current = start_hint != kInvalidPageId ? start_hint : head_;
  for (;;) {
    auto page = pool_->FetchPage(current);
    if (!page.ok()) return page.status();
    Exclusive latch((*page)->latch());
    SlottedPage sp(*page);
    auto slot = sp.Insert(record.data(), static_cast<std::uint16_t>(record.size()));
    if (slot.ok()) {
      latch.unlock();
      SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/true));
      return Rid{current, *slot};
    }
    PageId next = (*page)->next_page_id();
    if (next == kInvalidPageId) {
      // Append a fresh page to the chain. The current page stays latched so
      // a concurrent inserter waits and then follows the new link instead of
      // appending a second page; the pool never waits on a page latch, so
      // NewPage cannot deadlock against it.
      auto fresh = pool_->NewPage();
      if (!fresh.ok()) {
        latch.unlock();
        (void)pool_->UnpinPage(current, false);
        return fresh.status();
      }
      {
        Exclusive fresh_latch((*fresh)->latch());
        SlottedPage(*fresh).Init();
      }
      next = (*fresh)->page_id();
      (*page)->set_next_page_id(next);
      latch.unlock();
      SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/true));
      SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(next, /*dirty=*/true));
      if (link_logger_) SENTINEL_RETURN_NOT_OK(link_logger_(current, next));
    } else {
      latch.unlock();
      SENTINEL_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/false));
    }
    current = next;
  }
}

Status HeapFile::InsertAt(const Rid& rid, const std::vector<std::uint8_t>& record) {
  return WithPage<Exclusive>(pool_, rid.page_id,
                  [&](SlottedPage& sp, Page&, bool* dirty) -> Status {
                    *dirty = true;
                    if (sp.IsLive(rid.slot)) {
                      return sp.Update(rid.slot, record.data(),
                                       static_cast<std::uint16_t>(record.size()));
                    }
                    return sp.InsertInto(
                        rid.slot, record.data(),
                        static_cast<std::uint16_t>(record.size()));
                  });
}

Result<std::vector<std::uint8_t>> HeapFile::Read(const Rid& rid) const {
  std::vector<std::uint8_t> out;
  Status st = WithPage<Shared>(pool_, rid.page_id,
                       [&](SlottedPage& sp, Page&, bool*) -> Status {
                         auto rec = sp.Read(rid.slot);
                         if (!rec.ok()) return rec.status();
                         out = std::move(*rec);
                         return Status::OK();
                       });
  if (!st.ok()) return st;
  return out;
}

Status HeapFile::Update(const Rid& rid, const std::vector<std::uint8_t>& record) {
  return WithPage<Exclusive>(pool_, rid.page_id,
                  [&](SlottedPage& sp, Page&, bool* dirty) -> Status {
                    *dirty = true;
                    return sp.Update(rid.slot, record.data(),
                                     static_cast<std::uint16_t>(record.size()));
                  });
}

Status HeapFile::Delete(const Rid& rid) {
  return WithPage<Exclusive>(pool_, rid.page_id,
                  [&](SlottedPage& sp, Page&, bool* dirty) -> Status {
                    *dirty = true;
                    return sp.Delete(rid.slot);
                  });
}

Status HeapFile::Scan(
    const std::function<Status(const Rid&, const std::vector<std::uint8_t>&)>&
        fn) const {
  PageId current = head_;
  while (current != kInvalidPageId) {
    // Copy the page's live records out under the shared latch and call `fn`
    // after releasing it, so `fn` may itself touch the heap.
    PageId next = kInvalidPageId;
    std::vector<std::pair<SlotId, std::vector<std::uint8_t>>> records;
    SENTINEL_RETURN_NOT_OK(WithPage<Shared>(
        pool_, current, [&](SlottedPage& sp, Page& page, bool*) -> Status {
          next = page.next_page_id();
          for (SlotId s = 0; s < sp.slot_count(); ++s) {
            if (!sp.IsLive(s)) continue;
            auto rec = sp.Read(s);
            if (!rec.ok()) return rec.status();
            records.emplace_back(s, std::move(*rec));
          }
          return Status::OK();
        }));
    for (const auto& [slot, rec] : records) {
      SENTINEL_RETURN_NOT_OK(fn(Rid{current, slot}, rec));
    }
    current = next;
  }
  return Status::OK();
}

Status HeapFile::SetPageLsn(PageId page_id, Lsn lsn) {
  return WithPage<Exclusive>(pool_, page_id,
                  [&](SlottedPage&, Page& page, bool* dirty) -> Status {
                    if (page.lsn() < lsn) {
                      page.set_lsn(lsn);
                      *dirty = true;
                    }
                    return Status::OK();
                  });
}

}  // namespace sentinel::storage
