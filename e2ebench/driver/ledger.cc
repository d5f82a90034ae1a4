#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "bench.h"

namespace e2e {

namespace {

constexpr std::size_t kChunk = 1 << 16;

struct ThreadBuf {
  std::uint32_t index = 0;
  std::vector<std::unique_ptr<Span[]>> chunks;
  std::size_t used = kChunk;  // spans in the last chunk
};

std::mutex g_mu;  // guards g_bufs (registration and Drain)
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_capacity{0};
std::atomic<std::uint64_t> g_dropped{0};
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf* Buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    g_bufs.back()->index = static_cast<std::uint32_t>(g_bufs.size() - 1);
    t_buf = g_bufs.back().get();
  }
  return t_buf;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBegin: return "core.begin";
    case Layer::kWrapper: return "core.wrapper";
    case Layer::kNotify: return "core.notify";
    case Layer::kGet: return "oodb.get";
    case Layer::kPut: return "oodb.put";
    case Layer::kCommit: return "core.commit";
    case Layer::kCondition: return "rules.condition";
    case Layer::kAction: return "rules.action";
  }
  return "?";
}

enum class Group { kCore, kRules, kOodb };

Group GroupOf(Layer layer) {
  switch (layer) {
    case Layer::kCondition:
    case Layer::kAction:
      return Group::kRules;
    case Layer::kGet:
    case Layer::kPut:
      return Group::kOodb;
    default:
      return Group::kCore;
  }
}

bool Contains(const Span& outer, const Span& inner) {
  return outer.start <= inner.start && inner.end <= outer.end;
}

bool IsImmediateRule(const Span& s) {
  return s.tag == kTagFan || s.tag == kTagCheck;
}

// Running sums over all ops; divided by counts at the end.
struct Sums {
  long double op = 0, core = 0, rules = 0, oodb = 0, unaccounted = 0;
  long double begin = 0, notify = 0, notify_self = 0, commit = 0,
              commit_self = 0, handoff = 0, fanout = 0, deferred = 0,
              condition = 0, action = 0, get = 0, put = 0, orders_notify = 0;
};

// Analyses one op's spans (sorted by start, longer first on ties).
void AnalyzeOp(const OpInterval& op, const Span* sp, std::size_t n,
               Sums* sums, Ledger* out) {
  // 1. Nesting. Per thread, spans nest properly: a stack per thread.
  std::vector<int> parent(n, -1);
  std::vector<std::pair<std::uint32_t, std::vector<int>>> stacks;
  std::vector<int> driver;  // driver-thread spans, in start order
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<int>* st = nullptr;
    for (auto& [thread, stack] : stacks) {
      if (thread == sp[i].thread) st = &stack;
    }
    if (st == nullptr) {
      stacks.emplace_back(sp[i].thread, std::vector<int>());
      st = &stacks.back().second;
    }
    while (!st->empty() && !Contains(sp[st->back()], sp[i])) st->pop_back();
    if (!st->empty()) parent[i] = st->back();
    st->push_back(static_cast<int>(i));
    if (sp[i].thread == op.thread) driver.push_back(static_cast<int>(i));
  }
  // Roots on other threads (rules run by scheduler workers) hang off the
  // innermost driver-thread span containing them.
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] >= 0 || sp[i].thread == op.thread) continue;
    auto it = std::upper_bound(
        driver.begin(), driver.end(), sp[i].start,
        [sp](std::uint64_t t, int d) { return t < sp[d].start; });
    for (int steps = 0; it != driver.begin() && steps < 64; ++steps) {
      --it;
      if (Contains(sp[*it], sp[i])) {
        parent[i] = *it;
        break;
      }
    }
  }
  std::vector<std::vector<int>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] >= 0) children[parent[i]].push_back(static_cast<int>(i));
  }

  // 2. Per-span figures: duration, self time (duration minus the union of
  // its children), rule hand-off, fan-out makespan, deferred rule span.
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = sp[i];
    const double dur = static_cast<double>(s.end - s.start);
    std::uint64_t covered = 0, cursor = s.start;
    std::uint64_t first_cond = UINT64_MAX;
    std::uint64_t fan_lo = UINT64_MAX, fan_hi = 0, audit_lo = UINT64_MAX,
                  audit_hi = 0;
    int fan_conditions = 0;
    for (int c : children[i]) {  // children are in start order
      const Span& k = sp[c];
      const std::uint64_t lo = std::max(k.start, cursor);
      const std::uint64_t hi = std::min(k.end, s.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
      if (k.layer == Layer::kCondition) first_cond = std::min(first_cond, k.start);
      if (k.tag == kTagFan) {
        fan_lo = std::min(fan_lo, k.start);
        fan_hi = std::max(fan_hi, k.end);
        if (k.layer == Layer::kCondition) ++fan_conditions;
      }
      if (k.tag == kTagAudit) {
        audit_lo = std::min(audit_lo, k.start);
        audit_hi = std::max(audit_hi, k.end);
      }
    }
    const double self = dur - static_cast<double>(covered);
    switch (s.layer) {
      case Layer::kBegin:
        sums->begin += dur;
        ++out->begin_n;
        break;
      case Layer::kNotify:
        sums->notify += dur;
        sums->notify_self += self;
        ++out->notify_n;
        if (s.tag == kTagOrders) {
          sums->orders_notify += dur;
          ++out->orders_notify_n;
        }
        if (first_cond != UINT64_MAX) {
          sums->handoff += static_cast<double>(first_cond - s.start);
          ++out->handoff_n;
        }
        if (fan_conditions == 4) {
          sums->fanout += static_cast<double>(fan_hi - fan_lo);
          ++out->fanout_n;
        }
        break;
      case Layer::kCommit:
        sums->commit += dur;
        sums->commit_self += self;
        ++out->commit_n;
        if (audit_lo != UINT64_MAX) {
          sums->deferred += static_cast<double>(audit_hi - audit_lo);
          ++out->deferred_n;
        }
        break;
      case Layer::kCondition:
        if (IsImmediateRule(s)) {
          sums->condition += dur;
          ++out->condition_n;
        }
        break;
      case Layer::kAction:
        if (IsImmediateRule(s)) {
          sums->action += dur;
          ++out->action_n;
        }
        break;
      case Layer::kGet:
        sums->get += dur;
        ++out->get_n;
        break;
      case Layer::kPut:
        sums->put += dur;
        ++out->put_n;
        break;
      default:
        break;
    }
  }

  // 3. Ledger: sweep the op's interval; each instant goes to the innermost
  // active spans (those with no active child), split evenly when several run
  // concurrently, or to the unaccounted row when no span covers it. The rows
  // therefore sum to the op's measured time exactly.
  struct Event {
    std::uint64_t t;
    int kind;  // 0 = end, 1 = start
    int order;
    int span;
  };
  std::vector<Event> events;
  events.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t lo = std::max(sp[i].start, op.start);
    const std::uint64_t hi = std::min(sp[i].end, op.end);
    if (hi <= lo) continue;
    const int idx = static_cast<int>(i);
    events.push_back({lo, 1, idx, idx});
    events.push_back({hi, 0, -idx, idx});  // children end before parents
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.order < b.order;
  });
  std::vector<char> active(n, 0);
  std::vector<int> child_active(n, 0);
  std::vector<int> leaf_pos(n, -1);
  std::vector<int> leaves;
  auto add_leaf = [&](int i) {
    if (leaf_pos[i] >= 0) return;
    leaf_pos[i] = static_cast<int>(leaves.size());
    leaves.push_back(i);
  };
  auto remove_leaf = [&](int i) {
    const int pos = leaf_pos[i];
    if (pos < 0) return;
    leaves[pos] = leaves.back();
    leaf_pos[leaves[pos]] = pos;
    leaves.pop_back();
    leaf_pos[i] = -1;
  };
  long double group[3] = {0, 0, 0};
  long double unaccounted = 0;
  std::uint64_t prev = op.start;
  for (const Event& e : events) {
    if (e.t > prev) {
      const long double dt = static_cast<long double>(e.t - prev);
      if (leaves.empty()) {
        unaccounted += dt;
      } else {
        const long double share = dt / leaves.size();
        for (int l : leaves) group[static_cast<int>(GroupOf(sp[l].layer))] += share;
      }
      prev = e.t;
    }
    const int i = e.span;
    const int p = parent[i];
    if (e.kind == 1) {
      active[i] = 1;
      if (p >= 0 && active[p] && child_active[p]++ == 0) remove_leaf(p);
      if (child_active[i] == 0) add_leaf(i);
    } else {
      remove_leaf(i);
      active[i] = 0;
      if (p >= 0 && active[p] && --child_active[p] == 0) add_leaf(p);
    }
  }
  if (op.end > prev) unaccounted += static_cast<long double>(op.end - prev);

  sums->op += static_cast<long double>(op.end - op.start);
  sums->core += group[static_cast<int>(Group::kCore)];
  sums->rules += group[static_cast<int>(Group::kRules)];
  sums->oodb += group[static_cast<int>(Group::kOodb)];
  sums->unaccounted += unaccounted;
  ++out->ops;
}

double Mean(long double sum, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(sum / n);
}

bool SpanBefore(const Span& a, const Span& b) {
  if (a.op != b.op) return a.op < b.op;
  if (a.start != b.start) return a.start < b.start;
  return a.end > b.end;
}

}  // namespace

void SpanLog::Reset(std::size_t capacity) {
  g_capacity.store(capacity, std::memory_order_relaxed);
  g_count.store(0, std::memory_order_relaxed);
}

void SpanLog::Enable(bool on) {
  g_enabled.store(on, std::memory_order_release);
}

bool SpanLog::enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool SpanLog::nearly_full() {
  return g_count.load(std::memory_order_relaxed) * 10 >=
         g_capacity.load(std::memory_order_relaxed) * 9;
}

void SpanLog::Record(std::uint64_t op, Layer layer, std::uint8_t tag,
                     std::uint64_t start, std::uint64_t end) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  if (g_count.fetch_add(1, std::memory_order_relaxed) >=
      g_capacity.load(std::memory_order_relaxed)) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuf* b = Buf();
  if (b->used == kChunk) {
    b->chunks.push_back(std::make_unique<Span[]>(kChunk));
    b->used = 0;
  }
  b->chunks.back()[b->used++] = Span{start, end, op, b->index, layer, tag};
}

std::uint32_t SpanLog::ThreadIndex() { return Buf()->index; }

std::vector<Span> SpanLog::Drain() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> out;
  for (auto& b : g_bufs) {
    for (std::size_t c = 0; c < b->chunks.size(); ++c) {
      const std::size_t used = c + 1 == b->chunks.size() ? b->used : kChunk;
      out.insert(out.end(), b->chunks[c].get(), b->chunks[c].get() + used);
    }
    b->chunks.clear();
    b->used = kChunk;
  }
  return out;
}

std::uint64_t SpanLog::dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

Ledger Analyze(std::vector<Span> spans, std::vector<OpInterval> ops) {
  std::sort(spans.begin(), spans.end(), SpanBefore);
  std::sort(ops.begin(), ops.end(),
            [](const OpInterval& a, const OpInterval& b) { return a.op < b.op; });
  Ledger out;
  Sums sums;
  std::size_t a = 0;
  for (const OpInterval& op : ops) {
    while (a < spans.size() && spans[a].op < op.op) ++a;
    std::size_t b = a;
    while (b < spans.size() && spans[b].op == op.op) ++b;
    AnalyzeOp(op, spans.data() + a, b - a, &sums, &out);
    a = b;
  }
  out.op_ns = Mean(sums.op, out.ops);
  out.core_self_ns = Mean(sums.core, out.ops);
  out.rules_self_ns = Mean(sums.rules, out.ops);
  out.oodb_self_ns = Mean(sums.oodb, out.ops);
  out.unaccounted_ns = Mean(sums.unaccounted, out.ops);
  out.begin_ns = Mean(sums.begin, out.begin_n);
  out.notify_ns = Mean(sums.notify, out.notify_n);
  out.notify_self_ns = Mean(sums.notify_self, out.notify_n);
  out.commit_ns = Mean(sums.commit, out.commit_n);
  out.commit_self_ns = Mean(sums.commit_self, out.commit_n);
  out.handoff_ns = Mean(sums.handoff, out.handoff_n);
  out.fanout_makespan_ns = Mean(sums.fanout, out.fanout_n);
  out.deferred_ns = Mean(sums.deferred, out.deferred_n);
  out.condition_ns = Mean(sums.condition, out.condition_n);
  out.action_ns = Mean(sums.action, out.action_n);
  out.get_ns = Mean(sums.get, out.get_n);
  out.put_ns = Mean(sums.put, out.put_n);
  out.orders_notify_ns = Mean(sums.orders_notify, out.orders_notify_n);
  return out;
}

void ReportLedger(const Ledger& l, Report* r) {
  r->Info("trace.ops", static_cast<double>(l.ops));
  r->Metric("ledger.op_ns", l.op_ns, "ns");
  r->Metric("ledger.core_self_ns", l.core_self_ns, "ns");
  r->Metric("ledger.rules_self_ns", l.rules_self_ns, "ns");
  r->Metric("ledger.oodb_self_ns", l.oodb_self_ns, "ns");
  r->Metric("ledger.unaccounted_ns", l.unaccounted_ns, "ns");
  r->Metric("ledger.unaccounted_pct", 100.0 * Ratio(l.unaccounted_ns, l.op_ns),
            "%");
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<OpInterval>& ops, std::size_t max_ops) {
  if (path.empty() || ops.empty()) return true;
  std::vector<std::uint64_t> ids;
  for (const OpInterval& op : ops) ids.push_back(op.op);
  std::sort(ids.begin(), ids.end());
  if (ids.size() > max_ops) ids.resize(max_ops);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t base = spans.empty() ? 0 : spans.front().start;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  auto emit = [&](const char* name, std::uint64_t op, std::uint32_t tid,
                  std::uint64_t start, std::uint64_t end, int tag) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %llu, \"tag\": %d}}",
                 first ? "" : ",\n", name, tid,
                 (static_cast<double>(start) - static_cast<double>(base)) / 1e3,
                 static_cast<double>(end - start) / 1e3,
                 static_cast<unsigned long long>(op), tag);
    first = false;
  };
  for (const OpInterval& op : ops) {
    if (std::binary_search(ids.begin(), ids.end(), op.op)) {
      emit("op", op.op, op.thread, op.start, op.end, 0);
    }
  }
  for (const Span& s : spans) {
    if (std::binary_search(ids.begin(), ids.end(), s.op)) {
      emit(LayerName(s.layer), s.op, s.thread, s.start, s.end, s.tag);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
