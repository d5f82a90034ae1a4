// inventory_mem and inventory_durable: one closed-loop client running seeded
// order transactions through reactive methods, an event graph compiled from
// a Snoop spec, five IMMEDIATE rules and one DEFERRED rule.
//
// Per transaction of n items (each item: submit, reserve, confirm on one
// Order) the spec has a closed form that the run checks exactly:
//   SEQ(submitted then confirmed), CHRONICLE: n detections; each of the four
//     same-class fan-out rules fires n times;
//   AND(reserved, confirmed), RECENT: 2n-1 detections (one at every confirm,
//     one at every reserve after the first, since the partner is kept);
//     the higher-priority check rule fires 2n-1 times;
//   the DEFERRED audit rule (A* rewrite) fires once.
//
// One client: concurrent top-level transactions in one ActiveDatabase share
// the rule scheduler's queue (a Drain may run another transaction's firings,
// deferred ones included) and every DEFERRED A* node sees every
// transaction's begin and pre-commit events, so the closed form does not
// hold with several clients.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/active_database.h"
#include "core/reactive.h"
#include "ledger.h"
#include "preproc/compiler.h"

namespace e2e {
namespace {

using sentinel::Status;
using sentinel::core::ActiveDatabase;
using sentinel::core::Reactive;
using sentinel::oodb::Oid;
using sentinel::oodb::Value;
using sentinel::rules::RuleContext;
using sentinel::storage::TxnId;

constexpr int kConditionRounds = 120;  // ≈0.3 µs of dependent multiplies
constexpr int kActionRounds = 240;     // ≈0.5 µs
constexpr int kMaxItems = 16;
constexpr double kZipfExponent = 0.99;
/// With the pad below about 20 objects share a 4 KiB page, so the
/// population is 32x the object cache (1024 objects) and about 6x the buffer
/// pool (256 pages). Small records keep the WAL volume low (about 4 KB per
/// transaction), so the run measures the program rather than the disk's
/// write bandwidth.
constexpr std::size_t kObjects = 32768;
constexpr std::size_t kPadBytes = 60;
constexpr std::size_t kTxnsPerStream = 1 << 15;
constexpr std::size_t kPopulateBatch = 256;
constexpr int kWarmupTxnsMem = 400;
constexpr int kWarmupTxnsDurable = 150;
/// Untimed closed-loop run before the durable timed phase. The file system
/// needs seconds of writes before it settles (background writeback of
/// evicted pages starts, the device's write cache fills), and runs that
/// began in the fast early state read faster.
constexpr double kRunInSecondsDurable = 5;
constexpr std::size_t kSpanCapacity = 3'000'000;
constexpr std::size_t kTracedOps = 50;  // op trees written to the trace file

const char* const kMethods[3] = {"void submit(int order_id, int item)",
                                 "void reserve(int order_id, int item)",
                                 "void confirm(int order_id, int item)"};
// Rule slots: the four fan-out rules, the check rule, the audit rule.
constexpr int kFanRules = 4;
constexpr int kCheckRule = 4;
constexpr int kAuditRule = 5;
constexpr int kRuleSlots = 6;
const char* const kRuleNames[kRuleSlots] = {"fan0",  "fan1",  "fan2",
                                            "fan3",  "check", "audit"};

thread_local std::uint64_t t_work_sink = 0;

std::string Spec() {
  std::string spec =
      "class Order : REACTIVE {\n"
      "  attr qty: int;\n  attr price: int;\n  attr status: int;\n"
      "  attr audit: int;\n  attr pad: string;\n"
      "  event end(submitted) " + std::string(kMethods[0]) + ";\n"
      "  event end(reserved) " + kMethods[1] + ";\n"
      "  event end(confirmed) " + kMethods[2] + ";\n"
      "  event fulfilled = submitted then confirmed;\n"
      "  event matched = reserved ^ confirmed;\n";
  for (int j = 0; j < kFanRules; ++j) {
    const std::string r = kRuleNames[j];
    spec += "  rule " + r + "(fulfilled, " + r + "_c, " + r +
            "_a, CHRONICLE, IMMEDIATE, 10);\n";
  }
  spec += "  rule check(matched, check_c, check_a, RECENT, IMMEDIATE, 20);\n";
  spec += "  rule audit(fulfilled, audit_c, audit_a, CHRONICLE, DEFERRED, 10);\n";
  return spec + "}\n";
}

struct TxnInput {
  std::uint32_t first;  // into Stream::items
  std::uint32_t count;
};

/// Pre-generated transactions: 1..16 Zipf-drawn object indices each, sorted
/// ascending (ascending OID order).
struct Stream {
  std::vector<TxnInput> txns;
  std::vector<std::uint32_t> items;
};

Stream Generate(std::uint64_t seed) {
  const Zipf zipf(kObjects, kZipfExponent);
  Rng rng(seed);
  Stream s;
  s.txns.reserve(kTxnsPerStream);
  s.items.reserve(kTxnsPerStream * (kMaxItems + 1) / 2);
  for (std::size_t t = 0; t < kTxnsPerStream; ++t) {
    const auto n = static_cast<std::uint32_t>(1 + rng.Uniform(kMaxItems));
    const auto first = static_cast<std::uint32_t>(s.items.size());
    for (std::uint32_t k = 0; k < n; ++k) {
      s.items.push_back(static_cast<std::uint32_t>(zipf.Sample(&rng)));
    }
    std::sort(s.items.begin() + first, s.items.end());
    s.txns.push_back({first, n});
  }
  return s;
}

class Order : public Reactive {
 public:
  Order(ActiveDatabase* db, Oid oid) : Reactive(db, "Order", oid) {}
  /// One reactive method call; false when the body's store access failed.
  bool Call(int method, std::int64_t order_id, std::int64_t item,
            std::int64_t write_tag, bool durable, Samples* calls);
};

bool Order::Call(int method, std::int64_t order_id, std::int64_t item,
                 std::int64_t write_tag, bool durable, Samples* calls) {
  const bool trace = SpanLog::enabled();
  const std::uint64_t op = current_txn();
  const std::uint64_t w0 = trace ? NowNs() : 0;
  std::uint64_t b0 = 0, b1 = 0, e0 = 0, g0 = 0, g1 = 0;
  bool ok = true;
  {
    MethodScope scope(this, kMethods[method]);
    scope.Param("order_id", Value::Int(order_id));
    scope.Param("item", Value::Int(item));
    b0 = NowNs();
    scope.EnterBody();
    if (trace) b1 = NowNs();
    if (durable) {
      g0 = trace ? NowNs() : 0;
      if (method == 2) {
        ok = SetAttr("status", Value::Int(write_tag)).ok();
      } else {
        ok = GetAttr(method == 0 ? "qty" : "price").ok();
      }
      if (trace) g1 = NowNs();
    }
    if (trace) e0 = NowNs();
  }
  const std::uint64_t e1 = NowNs();
  calls->Add(e1 - b0);
  if (trace) {
    SpanLog::Record(op, Layer::kWrapper, kTagNone, w0, e1);
    SpanLog::Record(op, Layer::kNotify, kTagNone, b0, b1);
    if (durable) {
      SpanLog::Record(op, method == 2 ? Layer::kPut : Layer::kGet, kTagNone,
                      g0, g1);
    }
    SpanLog::Record(op, Layer::kNotify, kTagNone, e0, e1);
  }
  return ok;
}

/// One set-up: an open database with the spec installed, objects populated
/// and warmed, plus the client's inputs and outcome accounting.
struct Env {
  std::unique_ptr<ActiveDatabase> db;
  sentinel::preproc::FunctionRegistry fns;
  std::string prefix;  // durable only
  Stream stream;
  std::size_t next = 0;
  std::vector<Order> orders;  // by object index
  // Rule executions, counted by the benchmark's own conditions and actions.
  std::atomic<std::uint64_t> fired[kRuleSlots] = {};
  std::atomic<std::uint64_t> acted[kRuleSlots] = {};
  std::atomic<std::uint64_t> audit_errors{0};
  // Rule executions inside failed transactions: the closed form covers
  // committed transactions only.
  std::uint64_t fired_failed[kRuleSlots] = {}, acted_failed[kRuleSlots] = {};
  Order* audit_target = nullptr;  // first object of the running txn
  std::int64_t audit_tag = 0;
  std::int64_t txn_seq = 0;  // write tags
  std::uint64_t attempted = 0, committed = 0, failed = 0;
  std::uint64_t expect_fan = 0, expect_check = 0;
  std::vector<std::int64_t> status_expect, audit_expect;  // durable
  std::vector<Window> windows;  // of the running phase
  std::vector<OpInterval> traced;
};

std::uint8_t TagOf(int slot) {
  return slot < kFanRules ? kTagFan : slot == kCheckRule ? kTagCheck : kTagAudit;
}

void RegisterFunctions(Env* env, bool durable) {
  for (int slot = 0; slot < kRuleSlots; ++slot) {
    const std::string name = kRuleNames[slot];
    const std::uint8_t tag = TagOf(slot);
    env->fns.RegisterCondition(name + "_c", [env, slot, tag](
                                                const RuleContext& ctx) {
      const std::uint64_t t0 = SpanLog::enabled() ? NowNs() : 0;
      env->fired[slot].fetch_add(1, std::memory_order_relaxed);
      t_work_sink += Work(ctx.txn + slot, kConditionRounds);
      if (t0 != 0) SpanLog::Record(ctx.txn, Layer::kCondition, tag, t0, NowNs());
      return true;
    });
    env->fns.RegisterAction(name + "_a", [env, slot, tag, durable](
                                             const RuleContext& ctx) {
      const std::uint64_t t0 = SpanLog::enabled() ? NowNs() : 0;
      env->acted[slot].fetch_add(1, std::memory_order_relaxed);
      t_work_sink += Work(ctx.txn + slot, kActionRounds);
      if (slot == kAuditRule && durable) {
        // The deferred rule writes one audit attribute per transaction.
        const std::uint64_t p0 = t0 != 0 ? NowNs() : 0;
        if (env->audit_target == nullptr ||
            !env->audit_target->SetAttr("audit", Value::Int(env->audit_tag))
                 .ok()) {
          env->audit_errors.fetch_add(1, std::memory_order_relaxed);
        }
        if (t0 != 0) SpanLog::Record(ctx.txn, Layer::kPut, kTagNone, p0, NowNs());
      }
      if (t0 != 0) SpanLog::Record(ctx.txn, Layer::kAction, tag, t0, NowNs());
    });
  }
}

/// Runs one transaction, recording its samples in `w`. Returns false when it
/// failed.
bool RunTxn(Env* env, bool durable, Window* w) {
  const TxnInput& in = env->stream.txns[env->next++ % env->stream.txns.size()];
  const std::int64_t seq = ++env->txn_seq;
  ++env->attempted;
  std::uint64_t fired0[kRuleSlots], acted0[kRuleSlots];
  for (int j = 0; j < kRuleSlots; ++j) {
    fired0[j] = env->fired[j].load(std::memory_order_relaxed);
    acted0[j] = env->acted[j].load(std::memory_order_relaxed);
  }
  auto fail = [&] {
    ++env->failed;
    for (int j = 0; j < kRuleSlots; ++j) {
      env->fired_failed[j] += env->fired[j].load() - fired0[j];
      env->acted_failed[j] += env->acted[j].load() - acted0[j];
    }
    w->ops.Add(UINT64_MAX);  // a failed op misses every latency limit
    return false;
  };
  const std::uint64_t t0 = NowNs();
  auto begun = env->db->Begin();
  const std::uint64_t t1 = NowNs();
  if (!begun.ok()) return fail();
  const TxnId txn = *begun;
  const std::uint32_t* items = env->stream.items.data() + in.first;
  env->audit_target = &env->orders[items[0]];
  env->audit_tag = seq;
  bool ok = true;
  for (std::uint32_t k = 0; k < in.count && ok; ++k) {
    Order& order = env->orders[items[k]];
    order.set_current_txn(txn);
    const std::int64_t tag = seq * 32 + k;
    for (int m = 0; m < 3 && ok; ++m) {
      ok = order.Call(m, seq, items[k], tag, durable, &w->calls);
    }
  }
  std::uint64_t c0 = NowNs(), c1 = c0;
  if (ok) {
    ok = env->db->Commit(txn).ok();
    c1 = NowNs();
  } else {
    (void)env->db->Abort(txn);
  }
  if (SpanLog::enabled()) {
    SpanLog::Record(txn, Layer::kBegin, kTagNone, t0, t1);
    if (c1 > c0) SpanLog::Record(txn, Layer::kCommit, kTagNone, c0, c1);
    env->traced.push_back({txn, t0, c1, SpanLog::ThreadIndex()});
  }
  if (!ok) return fail();
  ++env->committed;
  if (w->done++ == 0) w->first_ns = t0;
  w->last_ns = c1;
  w->ops.Add(c1 - t0);
  w->commits.Add(c1 - c0);
  env->expect_fan += in.count;
  env->expect_check += 2 * in.count - 1;
  if (durable) {
    for (std::uint32_t k = 0; k < in.count; ++k) {
      env->status_expect[items[k]] = seq * 32 + k;
    }
    env->audit_expect[items[0]] = seq;
  }
  return true;
}

/// Runs the client closed-loop for `seconds`, recording into kWindows equal
/// windows. With `trace_odd_windows` the odd windows are traced and the even
/// ones not, so traced and untraced throughput see the same drift; tracing
/// (and the phase) stops early once the span buffer is nearly full. Returns
/// the transactions committed.
std::uint64_t RunPhase(Env* env, bool durable, double seconds, bool trace_odd_windows) {
  env->windows.assign(kWindows, Window());
  env->traced.clear();
  const std::uint64_t before = env->committed;
  const std::uint64_t start = NowNs();
  const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9 / kWindows);
  const std::uint64_t deadline = start + window_ns * kWindows;
  for (std::uint64_t now = NowNs(); now < deadline; now = NowNs()) {
    const std::size_t w = (now - start) / window_ns;
    if (trace_odd_windows) {
      const bool traced = w % 2 == 1;
      if (traced && SpanLog::nearly_full()) break;
      SpanLog::Enable(traced);
    }
    RunTxn(env, durable, &env->windows[w]);
  }
  SpanLog::Enable(false);
  for (Window& w : env->windows) {
    // Closed loop: the window's transactions ran back to back from the first
    // one's Begin to the last one's Commit return.
    w.seconds = static_cast<double>(w.last_ns - w.first_ns) / 1e9;
  }
  return env->committed - before;
}

Status Populate(Env* env) {
  const std::string pad(kPadBytes, 'p');
  TxnId txn = 0;
  for (std::size_t i = 0; i < kObjects; ++i) {
    if (i % kPopulateBatch == 0) {
      auto begun = env->db->Begin();
      if (!begun.ok()) return begun.status();
      txn = *begun;
    }
    // Inserted at full size: a record cannot grow past its page on update.
    const auto n = static_cast<std::int64_t>(i);
    sentinel::oodb::PersistentObject obj(sentinel::oodb::kInvalidOid, "Order");
    obj.Set("pad", Value::String(pad));
    obj.Set("qty", Value::Int(1 + n % 7));
    obj.Set("price", Value::Int(100 + n));
    obj.Set("status", Value::Int(0));
    obj.Set("audit", Value::Int(0));
    auto oid = env->db->object_cache()->Put(txn, std::move(obj));
    if (!oid.ok()) return oid.status();
    env->orders.emplace_back(env->db.get(), *oid);
    if (i % kPopulateBatch == kPopulateBatch - 1 || i + 1 == kObjects) {
      SENTINEL_RETURN_NOT_OK(env->db->Commit(txn));
    }
  }
  env->status_expect.assign(kObjects, 0);
  env->audit_expect.assign(kObjects, 0);
  return Status::OK();
}

/// Builds one environment; the elapsed time is one setup_s sample.
Status SetUp(const Config& config, bool durable, int index, Env* env) {
  env->db = std::make_unique<ActiveDatabase>();
  if (durable) {
    const std::string dir = config.dir + "/setup" + std::to_string(index);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    env->prefix = dir + "/inventory";
    SENTINEL_RETURN_NOT_OK(env->db->Open(env->prefix));
    // Commits are acknowledged once their WAL record is written; the WAL's
    // group-commit thread makes them durable in the background. Waiting for
    // each fsync would make the run measure the host's fsync latency, which
    // drifted by up to 2x within minutes on the machines this was built on.
    env->db->set_commit_durability(sentinel::storage::CommitDurability::kAsync);
  } else {
    SENTINEL_RETURN_NOT_OK(env->db->OpenInMemory());
  }
  env->stream = Generate(config.seed);
  RegisterFunctions(env, durable);
  sentinel::preproc::SpecCompiler compiler(env->db.get(), &env->fns);
  SENTINEL_RETURN_NOT_OK(compiler.LoadString(Spec()));
  if (durable) {
    SENTINEL_RETURN_NOT_OK(Populate(env));
  } else {
    for (std::size_t i = 0; i < kObjects; ++i) {
      env->orders.emplace_back(env->db.get(), static_cast<Oid>(i + 1));
    }
  }
  // Warm-up: fills the object cache and buffer pool and lets lazy set-up
  // (dispatch index, thread pool, pools) finish before timing.
  Window discard;
  const int warm = durable ? kWarmupTxnsDurable : kWarmupTxnsMem;
  for (int t = 0; t < warm; ++t) RunTxn(env, durable, &discard);
  return Status::OK();
}

/// Library counters read around the untraced phase.
struct Counters {
  std::uint64_t notifications = 0, detections = 0, executed = 0,
                rule_failures = 0, spans = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t buf_hits = 0, buf_misses = 0, evictions = 0;
  std::uint64_t fsyncs = 0, fsync_sum_ns = 0, fsync_count = 0;
  std::uint64_t wal_bytes = 0, lock_waits = 0, deadlocks = 0;
};

Counters Read(Env* env) {
  Counters k;
  ActiveDatabase* db = env->db.get();
  const auto totals = db->detector()->TotalsSnapshot();
  k.notifications = totals.notifications;
  k.detections = totals.detections;
  k.executed = db->scheduler()->executed_count();
  k.rule_failures = db->scheduler()->failed_count();
  k.spans = db->span_tracer()->recorded();
  if (auto* cache = db->object_cache()) {
    k.cache_hits = cache->hit_count();
    k.cache_misses = cache->miss_count();
  }
  if (db->database() != nullptr) {
    auto* engine = db->database()->engine();
    k.buf_hits = engine->buffer_pool()->hit_count();
    k.buf_misses = engine->buffer_pool()->miss_count();
    k.evictions = engine->buffer_pool()->eviction_count();
    k.fsyncs = engine->log_manager()->sync_count();
    const auto snap = engine->log_manager()->fsync_histogram().TakeSnapshot();
    k.fsync_sum_ns = snap.sum_ns;
    k.fsync_count = snap.count;
    std::error_code ec;
    k.wal_bytes = std::filesystem::file_size(env->prefix + ".wal", ec);
    k.lock_waits = engine->lock_manager()->wait_count();
    k.deadlocks = engine->lock_manager()->deadlock_count();
  }
  return k;
}

void ReportCounters(const Counters& a, const Counters& b, std::uint64_t ops,
                    Report* r) {
  const double n = static_cast<double>(ops);
  r->Metric("detector.notifications_per_op",
            Ratio(b.notifications - a.notifications, n), "count");
  r->Metric("detector.detections_per_op",
            Ratio(b.detections - a.detections, n), "count");
  r->Metric("rules.firings_per_op", Ratio(b.executed - a.executed, n), "count");
  r->Metric("rules.failed_per_op",
            Ratio(b.rule_failures - a.rule_failures, n), "count");
  r->Metric("obs.spans_per_op", Ratio(b.spans - a.spans, n), "count");
  const double hits = b.cache_hits - a.cache_hits;
  const double misses = b.cache_misses - a.cache_misses;
  r->Metric("oodb.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Info("oodb.cache_hits", hits);
  r->Info("oodb.cache_misses", misses);
  const double bhits = b.buf_hits - a.buf_hits;
  const double bmisses = b.buf_misses - a.buf_misses;
  r->Metric("storage.buffer_hit_ratio", Ratio(bhits, bhits + bmisses), "ratio");
  r->Info("storage.buffer_hits", bhits);
  r->Info("storage.buffer_misses", bmisses);
  r->Metric("storage.evictions_per_txn", Ratio(b.evictions - a.evictions, n),
            "count");
  const double fsyncs = b.fsyncs - a.fsyncs;
  r->Metric("storage.commits_per_fsync", Ratio(n, fsyncs), "count");
  r->Info("storage.fsyncs", fsyncs);
  r->Metric("storage.wal_fsync_ns",
            Ratio(b.fsync_sum_ns - a.fsync_sum_ns, b.fsync_count - a.fsync_count),
            "ns");
  r->Metric("storage.wal_bytes_per_txn", Ratio(b.wal_bytes - a.wal_bytes, n),
            "bytes");
  r->Metric("storage.lock_waits_per_txn",
            Ratio(b.lock_waits - a.lock_waits, n), "count");
  r->Metric("storage.deadlocks", b.deadlocks - a.deadlocks, "count");
}

/// Closes the database, reopens it and reads back every object: each
/// acknowledged commit's writes must be there.
void VerifyDurable(Env* env, Report* r) {
  Status st = env->db->Close();
  std::uint64_t mismatches = 0, checked = 0;
  ActiveDatabase reopened;
  if (st.ok()) st = reopened.Open(env->prefix);
  if (st.ok()) {
    auto txn = reopened.Begin();
    st = txn.status();
    for (std::size_t i = 0; st.ok() && i < env->orders.size(); ++i) {
      Order o(&reopened, env->orders[i].oid());
      o.set_current_txn(*txn);
      auto status = o.GetAttr("status");
      auto audit = o.GetAttr("audit");
      ++checked;
      if (!status.ok() || !audit.ok() ||
          status->AsInt() != env->status_expect[i] ||
          audit->AsInt() != env->audit_expect[i]) {
        ++mismatches;
      }
    }
    if (st.ok()) st = reopened.Commit(*txn);
  }
  if (st.ok()) st = reopened.Close();
  r->Check("durable.reopen_readback", st.ok() && mismatches == 0,
           std::to_string(checked) + " objects, " + std::to_string(mismatches) +
               " mismatches" + (st.ok() ? "" : "; " + st.ToString()));
}

/// The closed form over every committed transaction since set-up, warm-up
/// included. Executions inside failed transactions are set aside first.
void CheckRuleCounts(const Config& config, Env* env, Report* r) {
  std::string detail;
  auto expect = [&](const std::string& what, std::uint64_t got,
                    std::uint64_t want) {
    if (got != want) {
      detail += what + " " + std::to_string(got) + " != " +
                std::to_string(want) + "; ";
    }
  };
  auto fired = [env](int j) { return env->fired[j] - env->fired_failed[j]; };
  auto acted = [env](int j) { return env->acted[j] - env->acted_failed[j]; };
  for (int j = 0; j < kFanRules; ++j) {
    const std::string rule = kRuleNames[j];
    // The self-test's deliberately wrong expectation lands on fan0.
    const auto skew =
        static_cast<std::uint64_t>(j == 0 ? config.expect_offset : 0);
    expect(rule + ".conditions", fired(j), env->expect_fan + skew);
    expect(rule + ".actions", acted(j), env->expect_fan);
  }
  expect("check.conditions", fired(kCheckRule), env->expect_check);
  expect("check.actions", acted(kCheckRule), env->expect_check);
  expect("audit.conditions", fired(kAuditRule), env->committed);
  expect("audit.actions", acted(kAuditRule), env->committed);
  expect("audit.write_errors", env->audit_errors, 0);
  r->Check("rule_counts", detail.empty(),
           detail.empty() ? std::to_string(env->committed) + " txns" : detail);
}

}  // namespace

int RunInventory(const Config& config, bool durable, Report* r) {
  // Set up several times; the last environment is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    if (env != nullptr) (void)env->db->Close();
    env = std::make_unique<Env>();
    const std::uint64_t t0 = NowNs();
    Status st = SetUp(config, durable, i, env.get());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  r->Metric("setup_s", Median(setup_s), "s");
  r->Info("objects", static_cast<double>(kObjects));
  if (durable) {
    r->Info("commit_durability", "async");
    r->Info("storage.pages", static_cast<double>(env->db->database()
                                                     ->engine()
                                                     ->disk_manager()
                                                     ->page_count()));
  }

  // Untimed run-in (durable): the set-ups' files go to disk first, so their
  // writeback does not land in the timing, then the file system settles
  // under this workload's load.
  if (durable) {
    sync();
    RunPhase(env.get(), durable, kRunInSecondsDurable, false);
  }
  env->attempted = env->failed = 0;

  // Timed phase. End-to-end metrics come from the untraced windows (all of
  // them without --trace), library counters from the whole phase.
  SpanLog::Reset(kSpanCapacity);
  const Counters before = Read(env.get());
  const std::uint64_t committed =
      RunPhase(env.get(), durable, config.seconds, config.trace);
  const Counters after = Read(env.get());
  const std::uint64_t failed =
      env->failed + (after.rule_failures - before.rule_failures);
  std::vector<Window> plain, traced;
  for (std::size_t i = 0; i < env->windows.size(); ++i) {
    if (env->windows[i].done == 0) continue;  // after an early stop
    (config.trace && i % 2 == 1 ? traced : plain)
        .push_back(std::move(env->windows[i]));
  }
  const double plain_tput = r->Windows(&plain);
  r->Metric("peak_rss_mb", PeakRssMb(), "MB");
  r->Attempt(env->attempted, failed);
  r->Metric("error_rate", Ratio(failed, env->attempted), "ratio");
  ReportCounters(before, after, committed, r);
  // The network and the GED are not called here.
  for (const auto& [name, unit] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"net.local_notify_ns", "ns"}, {"net.server_detect_ns", "ns"},
           {"net.bytes_per_op", "bytes"}, {"ged.forwarded_per_op", "count"},
           {"net.sheds", "count"}, {"net.dropped", "count"},
           {"ged.dropped", "count"}}) {
    r->Metric(name, 0, unit);
  }

  if (config.trace) {
    std::vector<Span> spans = SpanLog::Drain();
    r->Info("trace.spans", static_cast<double>(spans.size()));
    r->Info("trace.dropped", static_cast<double>(SpanLog::dropped()));
    WriteChromeTrace(config.spans_out, spans, env->traced, kTracedOps);
    const Ledger l = Analyze(std::move(spans), std::move(env->traced));
    std::vector<double> traced_tput;
    for (const Window& w : traced) traced_tput.push_back(Ratio(w.done, w.seconds));
    r->Metric("obs.tracing_overhead_pct",
              100.0 * (plain_tput - Median(traced_tput)) / plain_tput, "%");
    r->Metric("core.begin_ns", l.begin_ns, "ns");
    r->Metric("core.notify_ns", l.notify_ns, "ns");
    r->Metric("core.notify_self_ns", l.notify_self_ns, "ns");
    r->Metric("core.commit_ns", l.commit_ns, "ns");
    r->Metric("core.commit_self_ns", l.commit_self_ns, "ns");
    r->Metric("rules.handoff_ns", l.handoff_ns, "ns");
    r->Metric("rules.fanout_makespan_ns", l.fanout_makespan_ns, "ns");
    r->Metric("rules.deferred_ns", l.deferred_ns, "ns");
    r->Metric("rules.condition_ns", l.condition_ns, "ns");
    r->Metric("rules.action_ns", l.action_ns, "ns");
    r->Metric("oodb.get_ns", l.get_ns, "ns");
    r->Metric("oodb.put_ns", l.put_ns, "ns");
    r->Info("trace.notify_n", static_cast<double>(l.notify_n));
    r->Info("trace.handoff_n", static_cast<double>(l.handoff_n));
    r->Info("trace.fanout_n", static_cast<double>(l.fanout_n));
    r->Info("trace.deferred_n", static_cast<double>(l.deferred_n));
    r->Info("trace.get_n", static_cast<double>(l.get_n));
    r->Info("trace.put_n", static_cast<double>(l.put_n));
    ReportLedger(l, r);
  }

  env->db->scheduler()->WaitDetached();
  CheckRuleCounts(config, env.get(), r);
  if (durable) {
    VerifyDurable(env.get(), r);
  } else {
    (void)env->db->Close();
  }
  return 0;
}

}  // namespace e2e
