// Concurrency: multiple application threads signalling events and running
// transactions against one ActiveDatabase. Exercises the detector's latch,
// the scheduler's queues and the nested lock table under real contention.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/active_database.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace sentinel::core {
namespace {

using detector::EventModifier;
using rules::RuleContext;

TEST(ConcurrencyTest, ParallelNotifiersAllTriggerRules) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_TRUE(
      db.DeclareEvent("e", "C", EventModifier::kEnd, "void f(int v)").ok());
  std::atomic<std::uint64_t> fired{0};
  ASSERT_TRUE(db.rule_manager()
                  ->DefineRule("r", "e", nullptr,
                               [&](const RuleContext&) { ++fired; })
                  .ok());
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      auto txn = db.Begin();
      ASSERT_TRUE(txn.ok());
      for (int i = 0; i < kEventsPerThread; ++i) {
        auto params = std::make_shared<detector::ParamList>();
        params->Insert("v", oodb::Value::Int(t * 1000 + i));
        db.NotifyMethod("C", static_cast<oodb::Oid>(t + 1),
                        EventModifier::kEnd, "void f(int v)", params, *txn);
      }
      ASSERT_TRUE(db.Commit(*txn).ok());
    });
  }
  for (auto& t : threads) t.join();
  db.scheduler()->Drain();
  EXPECT_EQ(fired.load(), static_cast<std::uint64_t>(kThreads) *
                              kEventsPerThread);
  ASSERT_TRUE(db.Close().ok());
}

TEST(ConcurrencyTest, CompositeDetectionUnderParallelStreams) {
  // Each thread drives its own instance-level SEQ; detections must match
  // per-thread counts exactly (no cross-thread pairing, thanks to
  // instance-level primitive events).
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  constexpr int kThreads = 3;
  std::atomic<int> detections[kThreads];
  for (int t = 0; t < kThreads; ++t) {
    detections[t] = 0;
    auto a = db.detector()->DefinePrimitive(
        "a" + std::to_string(t), "C", EventModifier::kEnd, "void fa()",
        static_cast<oodb::Oid>(t + 1));
    auto b = db.detector()->DefinePrimitive(
        "b" + std::to_string(t), "C", EventModifier::kEnd, "void fb()",
        static_cast<oodb::Oid>(t + 1));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(
        db.detector()->DefineSeq("s" + std::to_string(t), *a, *b).ok());
    ASSERT_TRUE(db.rule_manager()
                    ->DefineRule("r" + std::to_string(t),
                                 "s" + std::to_string(t), nullptr,
                                 [&detections, t](const RuleContext&) {
                                   ++detections[t];
                                 })
                    .ok());
  }
  constexpr int kPairs = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      auto params = std::make_shared<detector::ParamList>();
      for (int i = 0; i < kPairs; ++i) {
        db.NotifyMethod("C", static_cast<oodb::Oid>(t + 1),
                        EventModifier::kEnd, "void fa()", params, 1);
        db.NotifyMethod("C", static_cast<oodb::Oid>(t + 1),
                        EventModifier::kEnd, "void fb()", params, 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  db.scheduler()->Drain();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(detections[t].load(), kPairs) << "thread " << t;
  }
  ASSERT_TRUE(db.Close().ok());
}

TEST(ConcurrencyTest, ParallelTransactionsOnPersistentStore) {
  const std::string prefix = "/tmp/sentinel_conc_" + std::to_string(::getpid());
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());
  {
    ActiveDatabase db;
    ASSERT_TRUE(db.Open(prefix).ok());
    ASSERT_TRUE(
        db.database()->classes()->Register(oodb::ClassDef("Acct", "")).ok());
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    std::atomic<int> created{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&db, &created, t] {
        for (int i = 0; i < 25; ++i) {
          auto txn = db.Begin();
          if (!txn.ok()) continue;
          auto oid = db.CreateObject(
              *txn, "Acct", "acct-" + std::to_string(t) + "-" +
                                std::to_string(i));
          if (oid.ok() && db.Commit(*txn).ok()) {
            ++created;
          } else if (oid.ok()) {
            (void)db.Abort(*txn);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(created.load(), 100);
    EXPECT_EQ(db.database()->objects()->object_count(), 100u);
    ASSERT_TRUE(db.Close().ok());
  }
  // Reopen: everything durable.
  ActiveDatabase reopened;
  ASSERT_TRUE(reopened.Open(prefix).ok());
  EXPECT_EQ(reopened.database()->objects()->object_count(), 100u);
  ASSERT_TRUE(reopened.Close().ok());
  std::remove((prefix + ".db").c_str());
  std::remove((prefix + ".wal").c_str());
}

// Heap inserts from many threads into one file: each page's latch keeps the
// slot directory and free pointer consistent, so no two inserts share a
// slot and every record reads back exactly as written. The chain grows
// while the threads race, so the append-a-page path is exercised too.
TEST(ConcurrencyTest, ConcurrentHeapInsertsGetDistinctSlots) {
  const std::string path =
      "/tmp/sentinel_conc_heap_" + std::to_string(::getpid()) + ".db";
  std::remove(path.c_str());
  storage::DiskManager disk;
  ASSERT_TRUE(disk.Open(path).ok());
  storage::BufferPool pool(&disk, 64);
  auto head = storage::HeapFile::Create(&pool);
  ASSERT_TRUE(head.ok());
  storage::HeapFile heap(&pool, *head);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 150;
  auto record_of = [](int t, int i) {
    std::vector<std::uint8_t> rec(16 + (t * 7 + i) % 48);
    for (std::size_t b = 0; b < rec.size(); ++b) {
      rec[b] = static_cast<std::uint8_t>(t * 31 + i * 7 + b);
    }
    rec[0] = static_cast<std::uint8_t>(t);
    rec[1] = static_cast<std::uint8_t>(i);
    return rec;
  };
  std::vector<std::vector<storage::Rid>> rids(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto rid = heap.Insert(record_of(t, i));
        if (!rid.ok()) {
          ++failures;
          continue;
        }
        rids[t].push_back(*rid);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  std::set<std::pair<storage::PageId, storage::SlotId>> distinct;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(rids[t].size(), static_cast<std::size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      const storage::Rid& rid = rids[t][i];
      EXPECT_TRUE(distinct.insert({rid.page_id, rid.slot}).second)
          << "slot handed out twice: page " << rid.page_id << " slot "
          << rid.slot;
      auto back = heap.Read(rid);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_TRUE(*back == record_of(t, i))
          << "thread " << t << " record " << i << " read back altered";
    }
  }
  EXPECT_GT(pool.resident_count(), 1u);  // the chain grew under the race
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(disk.Close().ok());
  std::remove(path.c_str());
}

// Notify storm across the lock-striped dispatch path: each thread hammers
// its own class (composite SEQ event subscribed per class) while every
// notification also matches a class-level event on the shared base class.
// Exercises the shared graph lock, the dispatch index under concurrent
// probes, striped operator buffers, and inheritance routing, with exact
// final counts.
TEST(ConcurrencyTest, NotifyStormStripedDispatch) {
  class AtomicSink : public detector::EventSink {
   public:
    void OnEvent(const detector::Occurrence&,
                 detector::ParamContext) override {
      count.fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<std::uint64_t> count{0};
  };

  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  constexpr int kThreads = 4;
  constexpr int kPairsPerThread = 400;

  // In-memory mode has no persistent store; supply the class hierarchy
  // directly so inheritance-aware routing is exercised.
  oodb::ClassRegistry classes;
  db.detector()->set_class_registry(&classes);
  ASSERT_TRUE(classes.Register(oodb::ClassDef("Base", "")).ok());
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(
        classes.Register(oodb::ClassDef("S" + std::to_string(t), "Base"))
            .ok());
  }

  // Class-level event on the base class: fires for every subclass `fa` call.
  auto base_event = db.detector()->DefinePrimitive(
      "base_fa", "Base", EventModifier::kEnd, "void fa()");
  ASSERT_TRUE(base_event.ok());
  AtomicSink base_sink;
  ASSERT_TRUE(db.detector()
                  ->Subscribe("base_fa", &base_sink,
                              detector::ParamContext::kRecent)
                  .ok());

  // Per-class composite SEQ(a_t ; b_t), each with its own sink.
  std::vector<std::unique_ptr<AtomicSink>> seq_sinks;
  for (int t = 0; t < kThreads; ++t) {
    const std::string cls = "S" + std::to_string(t);
    auto a = db.detector()->DefinePrimitive("a" + std::to_string(t), cls,
                                            EventModifier::kEnd, "void fa()");
    auto b = db.detector()->DefinePrimitive("b" + std::to_string(t), cls,
                                            EventModifier::kEnd, "void fb()");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(
        db.detector()->DefineSeq("seq" + std::to_string(t), *a, *b).ok());
    seq_sinks.push_back(std::make_unique<AtomicSink>());
    ASSERT_TRUE(db.detector()
                    ->Subscribe("seq" + std::to_string(t),
                                seq_sinks.back().get(),
                                detector::ParamContext::kRecent)
                    .ok());
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      const std::string cls = "S" + std::to_string(t);
      auto params = std::make_shared<detector::ParamList>();
      for (int i = 0; i < kPairsPerThread; ++i) {
        db.NotifyMethod(cls, static_cast<oodb::Oid>(t + 1),
                        EventModifier::kEnd, "void fa()", params, 1);
        db.NotifyMethod(cls, static_cast<oodb::Oid>(t + 1),
                        EventModifier::kEnd, "void fb()", params, 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  db.scheduler()->Drain();

  // Every fa on every subclass matched the base-class event.
  EXPECT_EQ(base_sink.count.load(),
            static_cast<std::uint64_t>(kThreads) * kPairsPerThread);
  // Each per-class SEQ paired its own thread's fa;fb stream exactly.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seq_sinks[t]->count.load(),
              static_cast<std::uint64_t>(kPairsPerThread))
        << "class S" << t;
  }
  ASSERT_TRUE(db.Close().ok());
}

}  // namespace
}  // namespace sentinel::core
