// ged_loopback: two in-memory applications, `orders` and `shipping`, each
// forwarding its local detector to an EventBusServer + GlobalEventDetector on
// 127.0.0.1. The global event SEQ(order_submitted then shipment_sent) is
// pushed back to the `orders` client.
//
// One generator thread drives both applications in an open loop: pair k's
// submit is due at t0 + k*P and its dispatch kGapNs (20.5 periods) later.
// Each pair's latency runs from the dispatch's due time to the push
// handler's entry, so a stall delays every later sample instead of slowing
// the load.
//
// The subscription uses the CHRONICLE context, which pairs FIFO: dispatch k
// pairs with submit k as long as submit k reached the GED first. The two
// applications reach the GED over separate connections, and stalls of the
// `orders` path longer than the gap did happen (in 3 of 14 runs). One
// dispatch overtaking its submit then shifts every later pairing. So a
// dispatch is sent only once the GED has received its submit: the generator
// reads the received counter of the GED's `order_submitted` node (one
// relaxed load; the submit has almost always arrived some 20 ms before the
// dispatch is due). A wait past the due time shows in the generator lag and
// the op latency, both timed from the due time. Every push must pair its own
// order: a mispaired push is a failed op and fails the run.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/active_database.h"
#include "core/reactive.h"
#include "detector/event_node.h"
#include "ged/global_detector.h"
#include "ledger.h"
#include "net/event_bus_server.h"
#include "net/remote_client.h"

namespace e2e {
namespace {

using sentinel::Status;
using sentinel::core::ActiveDatabase;
using sentinel::core::Reactive;
using sentinel::detector::EventModifier;
using sentinel::detector::Occurrence;
using sentinel::detector::ParamContext;
using sentinel::oodb::Value;

constexpr double kPairsPerSecond = 1000;
constexpr std::uint64_t kPeriodNs =
    static_cast<std::uint64_t>(1e9 / kPairsPerSecond);
constexpr std::uint64_t kWarmupPairs = 300;
constexpr std::size_t kSpanCapacity = 2'000'000;
constexpr std::size_t kTracedOps = 50;
/// Submit-to-dispatch gap of one pair, in periods (plus half a period, so
/// submits and dispatches alternate).
constexpr std::uint64_t kGapPeriods = 20;
constexpr std::uint64_t kGapNs = kGapPeriods * kPeriodNs + kPeriodNs / 2;
constexpr std::chrono::seconds kDrainGrace{2};

const char kSubmitSig[] = "void submit(int order_id)";
const char kDispatchSig[] = "void dispatch(int order_id)";

/// Push bookkeeping shared by the generator and the `orders` client worker.
struct Pushes {
  explicit Pushes(std::uint64_t pairs)
      : due(pairs), app_failed(pairs), at(pairs), mispaired(pairs) {}
  std::int64_t expect_offset = 0;  // self-test skew of the expected pairing
  std::vector<std::uint64_t> due;  // dispatch due time per pair (generator)
  /// Set when one of pair k's application transactions failed (generator).
  std::vector<std::uint8_t> app_failed;
  /// Dispatches that, at their due time, had to wait for their submit to
  /// reach the GED (generator).
  std::uint64_t submit_waits = 0;
  std::vector<std::atomic<std::uint64_t>> at;  // push-handler entry per pair
  /// Set when pair k's push carried another order's submit.
  std::vector<std::atomic<bool>> mispaired;
  std::atomic<std::uint64_t> duplicates{0};  // a dispatch detected twice
  std::atomic<std::uint64_t> unknown{0};  // malformed, or an unknown order id
};

/// Both applications, the bus and the GED: one set-up.
struct GedEnv {
  std::unique_ptr<sentinel::ged::GlobalEventDetector> ged;
  std::unique_ptr<sentinel::net::EventBusServer> server;
  std::unique_ptr<ActiveDatabase> orders, shipping;
  std::unique_ptr<sentinel::net::RemoteGedClient> orders_client,
      shipping_client;
  std::unique_ptr<Pushes> pushes;
  /// The GED's `order_submitted` node: its received count says which
  /// submits the GED has seen (ids are sent in order from 0).
  const sentinel::detector::EventNode* ged_submitted = nullptr;

  ~GedEnv() { TearDown(); }
  void TearDown() {
    if (orders_client) orders_client->Stop();
    if (shipping_client) shipping_client->Stop();
    // The raw-observer hooks point at the clients: close the applications
    // before the clients go away.
    if (orders) (void)orders->Close();
    if (shipping) (void)shipping->Close();
    orders_client.reset();
    shipping_client.reset();
    if (server) server->Stop();
    if (ged) ged->Shutdown();
    server.reset();
    ged.reset();
    orders.reset();
    shipping.reset();
  }
};

/// Push handler (on the `orders` client's worker thread). An op is the
/// detection terminated by dispatch d; it is delivered when a push carrying
/// d and d's own submit arrives.
void OnPush(Pushes* p, const Occurrence& occ) {
  const std::uint64_t now = NowNs();
  if (occ.constituents.size() != 2 || !occ.constituents[0]->params ||
      !occ.constituents[1]->params) {
    p->unknown.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto submitted = occ.constituents[0]->params->Get("order_id");
  auto shipped = occ.constituents[1]->params->Get("order_id");
  if (!submitted.ok() || !shipped.ok()) {
    p->unknown.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::int64_t d = shipped->AsInt();
  if (d < 0 || static_cast<std::size_t>(d) >= p->at.size()) {
    p->unknown.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The flag is set before `at` publishes the push. A second push for d
  // (which could set it after a right first one) fails the run anyway.
  if (submitted->AsInt() + p->expect_offset != d) {
    p->mispaired[d].store(true, std::memory_order_relaxed);
  }
  std::uint64_t expected = 0;
  if (!p->at[d].compare_exchange_strong(expected, now)) {
    p->duplicates.fetch_add(1, std::memory_order_relaxed);
  }
}

Status SetUp(std::uint64_t pairs, std::int64_t expect_offset, GedEnv* env) {
  using sentinel::net::EventBusServer;
  using sentinel::net::RemoteGedClient;
  env->pushes = std::make_unique<Pushes>(pairs);
  env->pushes->expect_offset = expect_offset;
  env->ged = std::make_unique<sentinel::ged::GlobalEventDetector>();
  env->server = std::make_unique<EventBusServer>(env->ged.get());
  SENTINEL_RETURN_NOT_OK(env->server->Start(EventBusServer::Options()));
  env->orders = std::make_unique<ActiveDatabase>();
  env->shipping = std::make_unique<ActiveDatabase>();
  SENTINEL_RETURN_NOT_OK(env->orders->OpenInMemory());
  SENTINEL_RETURN_NOT_OK(env->shipping->OpenInMemory());
  auto connect = [&](const std::string& app, ActiveDatabase* db,
                     std::unique_ptr<RemoteGedClient>* out) {
    RemoteGedClient::Options options;
    options.port = env->server->port();
    options.app_name = app;
    *out = std::make_unique<RemoteGedClient>(options);
    SENTINEL_RETURN_NOT_OK((*out)->Start());
    if (!(*out)->WaitConnected(std::chrono::seconds(10))) {
      return Status::IOError(app + " could not connect: " +
                             (*out)->last_error());
    }
    (*out)->BindLocalDetector(db->detector());
    return Status::OK();
  };
  SENTINEL_RETURN_NOT_OK(connect("orders", env->orders.get(),
                                 &env->orders_client));
  SENTINEL_RETURN_NOT_OK(connect("shipping", env->shipping.get(),
                                 &env->shipping_client));
  SENTINEL_RETURN_NOT_OK(env->orders_client->DefineGlobalPrimitive(
      "order_submitted", "Order", EventModifier::kEnd, kSubmitSig));
  SENTINEL_RETURN_NOT_OK(env->shipping_client->DefineGlobalPrimitive(
      "shipment_sent", "Shipment", EventModifier::kEnd, kDispatchSig));
  auto* graph = env->ged->graph();
  auto submitted = graph->Find("order_submitted");
  auto shipped = graph->Find("shipment_sent");
  SENTINEL_RETURN_NOT_OK(submitted.status());
  SENTINEL_RETURN_NOT_OK(shipped.status());
  env->ged_submitted = *submitted;
  SENTINEL_RETURN_NOT_OK(
      graph->DefineSeq("order_fulfilled", *submitted, *shipped).status());
  Pushes* p = env->pushes.get();
  return env->orders_client->Subscribe(
      "order_fulfilled", ParamContext::kChronicle,
      [p](const std::string&, const Occurrence& occ) { OnPush(p, occ); });
}

/// One transaction in `db` running one reactive call on `obj`; its call and
/// commit latencies go to `w`. Returns false when it failed.
bool AppTxn(ActiveDatabase* db, Reactive* obj, const char* sig,
            std::int64_t order_id, std::uint8_t tag, Window* w) {
  const bool trace = SpanLog::enabled();
  const auto op = static_cast<std::uint64_t>(order_id);
  const std::uint64_t t0 = NowNs();
  auto txn = db->Begin();
  const std::uint64_t t1 = NowNs();
  if (!txn.ok()) return false;
  obj->set_current_txn(*txn);
  const std::uint64_t w0 = trace ? NowNs() : 0;
  std::uint64_t b0 = 0, b1 = 0, e0 = 0;
  {
    Reactive::MethodScope scope(obj, sig);
    scope.Param("order_id", Value::Int(order_id));
    b0 = NowNs();
    scope.EnterBody();
    if (trace) b1 = e0 = NowNs();
  }
  const std::uint64_t e1 = NowNs();
  w->calls.Add(e1 - b0);
  const std::uint64_t c0 = NowNs();
  const bool ok = db->Commit(*txn).ok();
  const std::uint64_t c1 = NowNs();
  w->commits.Add(c1 - c0);
  if (trace) {
    SpanLog::Record(op, Layer::kBegin, kTagNone, t0, t1);
    SpanLog::Record(op, Layer::kWrapper, kTagNone, w0, e1);
    SpanLog::Record(op, Layer::kNotify, tag, b0, b1);
    SpanLog::Record(op, Layer::kNotify, tag, e0, e1);
    SpanLog::Record(op, Layer::kCommit, kTagNone, c0, c1);
  }
  return ok;
}

void WaitUntil(std::uint64_t due) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(due)));
}

/// Waits until the GED has received submit k, or kDrainGrace passes (a lost
/// submit then shows as a missing push). Returns whether it had to wait.
bool AwaitSubmitted(const sentinel::detector::EventNode* node,
                    std::uint64_t k) {
  auto received = [node] {
    return node->metrics().ForContext(ParamContext::kChronicle).received;
  };
  if (received() > k) return false;
  const auto deadline = std::chrono::steady_clock::now() + kDrainGrace;
  while (received() <= k && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

/// Drives pairs [from, to) on a schedule starting 1 ms from now: submit k is
/// due k-from periods in, and dispatch k kGapNs after it, so the two kinds
/// alternate at half-period steps. Spreads the pairs' samples evenly over
/// `windows` and returns the generator lags.
Samples Generate(GedEnv* env, std::uint64_t from, std::uint64_t to,
                 std::vector<Window>* windows) {
  Reactive order(env->orders.get(), "Order", 1);
  Reactive shipment(env->shipping.get(), "Shipment", 1);
  // Sleeps end within the timer slack (50 µs by default); 1 ns keeps the
  // schedule tight without spinning a CPU the applications need.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Samples lag;
  Pushes& p = *env->pushes;
  const std::uint64_t n = to - from;
  auto window = [&](std::uint64_t k) {
    return &(*windows)[(k - from) * windows->size() / n];
  };
  const std::uint64_t t0 = NowNs() + 1'000'000;
  for (std::uint64_t j = 0; j < n + kGapPeriods; ++j) {
    if (j < n) {
      const std::uint64_t k = from + j;
      const std::uint64_t due_submit = t0 + j * kPeriodNs;
      p.due[k] = due_submit + kGapNs;
      WaitUntil(due_submit);
      lag.Add(NowNs() - due_submit);
      if (!AppTxn(env->orders.get(), &order, kSubmitSig,
                  static_cast<std::int64_t>(k), kTagOrders, window(k))) {
        p.app_failed[k] = 1;
      }
    }
    if (j >= kGapPeriods) {
      const std::uint64_t k = from + j - kGapPeriods;
      WaitUntil(p.due[k]);
      p.submit_waits += AwaitSubmitted(env->ged_submitted, k);
      lag.Add(NowNs() - p.due[k]);
      if (!AppTxn(env->shipping.get(), &shipment, kDispatchSig,
                  static_cast<std::int64_t>(k), kTagNone, window(k))) {
        p.app_failed[k] = 1;
      }
    }
  }
  return lag;
}

/// Waits until every pair in [from, to) was pushed, or the grace expires.
void AwaitPushes(const Pushes& p, std::uint64_t from, std::uint64_t to) {
  const auto deadline = std::chrono::steady_clock::now() + kDrainGrace;
  for (std::uint64_t k = from; k < to; ++k) {
    while (p.at[k].load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

struct NetCounters {
  std::uint64_t notifications = 0, detections = 0, executed = 0,
                rule_failures = 0, spans = 0;
  std::uint64_t bytes = 0, sheds = 0, detect_sum_ns = 0, detect_count = 0;
  std::uint64_t client_drops = 0, forwarded = 0, ged_dropped = 0;
};

NetCounters Read(GedEnv* env) {
  NetCounters k;
  for (ActiveDatabase* db : {env->orders.get(), env->shipping.get()}) {
    const auto totals = db->detector()->TotalsSnapshot();
    k.notifications += totals.notifications;
    k.detections += totals.detections;
    k.executed += db->scheduler()->executed_count();
    k.rule_failures += db->scheduler()->failed_count();
    k.spans += db->span_tracer()->recorded();
  }
  const auto ged_totals = env->ged->graph()->TotalsSnapshot();
  k.notifications += ged_totals.notifications;
  k.detections += ged_totals.detections;
  const auto s = env->server->stats();
  k.bytes = s.bytes_in + s.bytes_out;
  k.sheds = s.sheds;
  k.detect_sum_ns = s.e2e_detect_ns.sum_ns;
  k.detect_count = s.e2e_detect_ns.count;
  k.client_drops = env->orders_client->stats().notifies_dropped +
                   env->shipping_client->stats().notifies_dropped;
  k.forwarded = env->ged->forwarded_count();
  k.ged_dropped = env->ged->dropped_count();
  return k;
}

}  // namespace

int RunGedLoopback(const Config& config, Report* r) {
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  const auto timed = static_cast<std::uint64_t>(untraced_s * kPairsPerSecond);
  const auto traced =
      config.trace
          ? static_cast<std::uint64_t>(config.seconds / 2 * kPairsPerSecond)
          : 0;
  const std::uint64_t total = kWarmupPairs + timed + traced;

  std::vector<double> setup_s;
  auto env = std::make_unique<GedEnv>();
  std::vector<Window> warm_windows(1);
  for (int i = 0; i < kSetups; ++i) {
    env = std::make_unique<GedEnv>();
    const std::uint64_t t0 = NowNs();
    Status st = SetUp(total, config.expect_offset, env.get());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    Generate(env.get(), 0, kWarmupPairs, &warm_windows);
    AwaitPushes(*env->pushes, 0, kWarmupPairs);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  r->Metric("setup_s", Median(setup_s), "s");
  r->Info("pairs_per_s", kPairsPerSecond);
  Pushes& p = *env->pushes;

  // Untraced phase.
  std::vector<Window> windows(kWindows);
  const NetCounters before = Read(env.get());
  Samples lag = Generate(env.get(), kWarmupPairs, kWarmupPairs + timed,
                         &windows);
  AwaitPushes(p, kWarmupPairs, kWarmupPairs + timed);
  const NetCounters after = Read(env.get());

  // A pair fails on a push timeout, a mispaired push or a failed
  // application transaction; a failed op misses every latency limit.
  std::uint64_t missing = 0, mispaired = 0, failed_pairs = 0, last_push = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::uint64_t lo = kWarmupPairs + i * timed / windows.size();
    const std::uint64_t hi = kWarmupPairs + (i + 1) * timed / windows.size();
    std::uint64_t last = 0;
    for (std::uint64_t k = lo; k < hi; ++k) {
      const std::uint64_t at = p.at[k].load(std::memory_order_acquire);
      const bool wrong = at != 0 && p.mispaired[k].load();
      missing += at == 0;
      mispaired += wrong;
      if (at == 0 || wrong || p.app_failed[k] != 0) {
        ++failed_pairs;
        windows[i].ops.Add(UINT64_MAX);
        continue;
      }
      windows[i].ops.Add(at - p.due[k]);
      ++windows[i].done;
      last = std::max(last, at);
    }
    last_push = std::max(last_push, last);
    // From the first dispatch's due time to the last push of the window.
    windows[i].seconds =
        last > p.due[lo] ? static_cast<double>(last - p.due[lo]) / 1e9 : 0;
  }
  r->Windows(&windows);
  const double plain_tput =
      last_push > p.due[kWarmupPairs]
          ? (timed - failed_pairs) /
                (static_cast<double>(last_push - p.due[kWarmupPairs]) / 1e9)
          : 0;
  r->Metric("peak_rss_mb", PeakRssMb(), "MB");
  const double lag_p99 = lag.QuantileUs(0.99);
  r->Info("gen_lag_p99_us", lag_p99);
  r->Info("gen_lag_p50_us", lag.QuantileUs(0.50));
  r->Info("gen_lag_samples", static_cast<double>(lag.count()));
  // Lost events (client drops, server sheds, GED drops) and rule failures
  // count as failed ops too. A lost event usually also leaves its pair
  // without a push, so it may count twice; the count is capped at the ops.
  const std::uint64_t lost = (after.client_drops - before.client_drops) +
                             (after.sheds - before.sheds) +
                             (after.ged_dropped - before.ged_dropped);
  const std::uint64_t failed =
      std::min(timed, failed_pairs + lost +
                          (after.rule_failures - before.rule_failures));
  r->Attempt(timed, failed);
  r->Metric("error_rate", Ratio(failed, timed), "ratio");
  r->Info("ged.push_timeouts", static_cast<double>(missing));
  r->Info("ged.mispaired_pushes", static_cast<double>(mispaired));
  r->Info("ged.submit_waits", static_cast<double>(p.submit_waits));

  const double n = static_cast<double>(timed);
  r->Metric("detector.notifications_per_op",
            Ratio(after.notifications - before.notifications, n), "count");
  r->Metric("detector.detections_per_op",
            Ratio(after.detections - before.detections, n), "count");
  r->Metric("rules.firings_per_op", Ratio(after.executed - before.executed, n),
            "count");
  r->Metric("rules.failed_per_op",
            Ratio(after.rule_failures - before.rule_failures, n), "count");
  r->Metric("obs.spans_per_op", Ratio(after.spans - before.spans, n), "count");
  r->Metric("net.server_detect_ns",
            Ratio(after.detect_sum_ns - before.detect_sum_ns,
                  after.detect_count - before.detect_count),
            "ns");
  r->Metric("net.bytes_per_op", Ratio(after.bytes - before.bytes, n), "bytes");
  r->Metric("ged.forwarded_per_op", Ratio(after.forwarded - before.forwarded, n),
            "count");
  r->Metric("net.sheds", after.sheds - before.sheds, "count");
  r->Metric("net.dropped", after.client_drops - before.client_drops, "count");
  r->Metric("ged.dropped", after.ged_dropped - before.ged_dropped, "count");
  // No rule is defined, and both applications run in memory.
  for (const auto& [name, unit] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"rules.handoff_ns", "ns"}, {"rules.fanout_makespan_ns", "ns"},
           {"rules.deferred_ns", "ns"}, {"rules.condition_ns", "ns"},
           {"rules.action_ns", "ns"}, {"oodb.get_ns", "ns"},
           {"oodb.put_ns", "ns"}, {"oodb.cache_hit_ratio", "ratio"},
           {"storage.commits_per_fsync", "count"},
           {"storage.wal_fsync_ns", "ns"},
           {"storage.wal_bytes_per_txn", "bytes"},
           {"storage.buffer_hit_ratio", "ratio"},
           {"storage.evictions_per_txn", "count"},
           {"storage.lock_waits_per_txn", "count"},
           {"storage.deadlocks", "count"}}) {
    r->Metric(name, 0, unit);
  }

  if (config.trace) {
    const std::uint64_t from = kWarmupPairs + timed;
    SpanLog::Reset(kSpanCapacity);
    SpanLog::Enable(true);
    std::vector<Window> traced_windows(1);
    Generate(env.get(), from, total, &traced_windows);
    SpanLog::Enable(false);
    AwaitPushes(p, from, total);
    const std::uint32_t thread = SpanLog::ThreadIndex();
    std::vector<OpInterval> op_list;
    std::uint64_t traced_delivered = 0, traced_last = 0;
    for (std::uint64_t k = from; k < total; ++k) {
      const std::uint64_t at = p.at[k].load(std::memory_order_acquire);
      if (at == 0 || p.mispaired[k].load()) continue;
      ++traced_delivered;
      traced_last = std::max(traced_last, at);
      op_list.push_back({k, p.due[k], at, thread});
    }
    std::vector<Span> spans = SpanLog::Drain();
    r->Info("trace.spans", static_cast<double>(spans.size()));
    WriteChromeTrace(config.spans_out, spans, op_list, kTracedOps);
    const Ledger l = Analyze(std::move(spans), std::move(op_list));
    const double traced_tput =
        traced_last > p.due[from]
            ? traced_delivered /
                  (static_cast<double>(traced_last - p.due[from]) / 1e9)
            : 0;
    // Open loop: the rate is fixed, so this stays near 0 unless tracing
    // pushes the pipeline past its capacity.
    r->Metric("obs.tracing_overhead_pct",
              100.0 * (plain_tput - traced_tput) / plain_tput, "%");
    r->Metric("core.begin_ns", l.begin_ns, "ns");
    r->Metric("core.notify_ns", l.notify_ns, "ns");
    r->Metric("core.notify_self_ns", l.notify_self_ns, "ns");
    r->Metric("core.commit_ns", l.commit_ns, "ns");
    r->Metric("core.commit_self_ns", l.commit_self_ns, "ns");
    r->Metric("net.local_notify_ns", l.orders_notify_ns, "ns");
    r->Info("trace.orders_notify_n", static_cast<double>(l.orders_notify_n));
    ReportLedger(l, r);
  }

  // Output check: every dispatch is detected at most once, with its own
  // order's submit.
  std::uint64_t pushes = 0, wrong = 0;
  for (std::uint64_t k = 0; k < total; ++k) {
    if (p.at[k].load() == 0) continue;
    ++pushes;
    wrong += p.mispaired[k].load();
  }
  const std::uint64_t dups = p.duplicates.load();
  const std::uint64_t unknown = p.unknown.load();
  r->Check("ged.push_pairing", wrong + dups + unknown == 0,
           std::to_string(pushes - wrong) + " of " + std::to_string(pushes) +
               " pushes pair their own order; " + std::to_string(dups) +
               " duplicate, " + std::to_string(unknown) + " malformed");
  env->TearDown();
  return 0;
}

}  // namespace e2e
