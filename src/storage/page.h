#ifndef SENTINEL_STORAGE_PAGE_H_
#define SENTINEL_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <shared_mutex>

namespace sentinel::storage {

using PageId = std::uint32_t;
using Lsn = std::uint64_t;

constexpr PageId kInvalidPageId = 0xFFFFFFFF;
constexpr Lsn kInvalidLsn = 0;
constexpr std::size_t kPageSize = 4096;

/// In-memory frame for one disk page. The first bytes of `data` hold a
/// PageHeader (page id, LSN of the last modifying log record, next-page link
/// for heap files); the rest is payload managed by SlottedPage.
///
/// The latch guards `data` between a pin and its unpin: exclusive to modify
/// the page, shared to read it (HeapFile, and the buffer pool while it writes
/// a pinned dirty page to disk). Latches are taken only while pinned, so an
/// unpinned page has no holder.
class Page {
 public:
  /// On-page header, stored at offset 0 of every page.
  struct Header {
    PageId page_id;
    std::uint32_t reserved;  // alignment padding for lsn
    Lsn lsn;
    PageId next_page_id;
    std::uint32_t reserved2;
  };
  static_assert(sizeof(Header) == 24, "unexpected page header layout");

  Page() { Reset(); }

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  void Reset() {
    std::memset(data_, 0, kPageSize);
    header()->page_id = kInvalidPageId;
    header()->lsn = kInvalidLsn;
    header()->next_page_id = kInvalidPageId;
  }

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }

  Header* header() { return reinterpret_cast<Header*>(data_); }
  const Header* header() const { return reinterpret_cast<const Header*>(data_); }

  PageId page_id() const { return header()->page_id; }
  void set_page_id(PageId id) { header()->page_id = id; }
  Lsn lsn() const { return header()->lsn; }
  void set_lsn(Lsn lsn) { header()->lsn = lsn; }
  PageId next_page_id() const { return header()->next_page_id; }
  void set_next_page_id(PageId id) { header()->next_page_id = id; }

  /// Payload area following the header.
  static constexpr std::size_t kPayloadOffset = sizeof(Header);
  static constexpr std::size_t kPayloadSize = kPageSize - kPayloadOffset;
  std::uint8_t* payload() { return data_ + kPayloadOffset; }
  const std::uint8_t* payload() const { return data_ + kPayloadOffset; }

  // Buffer-pool bookkeeping (not persisted).
  bool is_dirty() const { return dirty_; }
  void set_dirty(bool dirty) { dirty_ = dirty; }
  int pin_count() const { return pin_count_; }
  void Pin() { ++pin_count_; }
  void Unpin() { --pin_count_; }

  std::shared_mutex& latch() { return latch_; }

 private:
  alignas(8) std::uint8_t data_[kPageSize];
  std::shared_mutex latch_;
  bool dirty_ = false;
  int pin_count_ = 0;
};

}  // namespace sentinel::storage

#endif  // SENTINEL_STORAGE_PAGE_H_
