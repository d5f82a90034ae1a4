// Span recording around the driver's calls into each layer, and the
// per-layer ledger computed from those spans after the traced phase.
//
// Spans live in per-thread chunked buffers (no lock on the record path) and
// are analysed once at the end. Every span carries the op id it belongs to;
// nesting is recovered from the timestamps: within one thread spans nest
// properly, and a span that is a root on a rule-scheduler thread hangs off
// the innermost span of its op's driver thread that contains it.
#ifndef E2EBENCH_DRIVER_LEDGER_H_
#define E2EBENCH_DRIVER_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class Layer : std::uint8_t {
  kBegin,      // ActiveDatabase::Begin
  kWrapper,    // Reactive method wrapper: scope, parameters, body, notifies
  kNotify,     // one NotifyMethod (begin or end), immediate rules included
  kGet,        // Reactive::GetAttr
  kPut,        // Reactive::SetAttr
  kCommit,     // ActiveDatabase::Commit
  kCondition,  // rule condition (benchmark-owned work)
  kAction,     // rule action (benchmark-owned work)
};

/// Span tags: which rule a condition/action span belongs to, or which
/// application a notify span was raised in.
enum Tag : std::uint8_t {
  kTagNone = 0,
  kTagFan = 1,     // one of the four same-class IMMEDIATE rules
  kTagCheck = 2,   // the higher-priority IMMEDIATE rule
  kTagAudit = 3,   // the DEFERRED rule
  kTagOrders = 4,  // notify raised in the `orders` application
};

struct Span {
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t op;
  std::uint32_t thread;
  Layer layer;
  std::uint8_t tag;
};

/// One timed op: the interval the ledger must account for.
struct OpInterval {
  std::uint64_t op;
  std::uint64_t start;
  std::uint64_t end;
  std::uint32_t thread;  // the driver thread that issued it
};

class SpanLog {
 public:
  /// Forgets the span budget: from now on up to `capacity` spans are kept.
  static void Reset(std::size_t capacity);
  /// Starts or pauses recording.
  static void Enable(bool on);
  static bool enabled();
  /// True once the soft limit (90% of capacity) is reached: the driver stops
  /// tracing at the next op boundary.
  static bool nearly_full();
  static void Record(std::uint64_t op, Layer layer, std::uint8_t tag,
                     std::uint64_t start, std::uint64_t end);
  /// Stable small index of the calling thread.
  static std::uint32_t ThreadIndex();
  /// Moves every recorded span out of the per-thread buffers.
  static std::vector<Span> Drain();
  static std::uint64_t dropped();
};

/// Per-layer figures of one traced phase. Times are means in ns; `*_n` are
/// the sample counts behind them.
struct Ledger {
  std::uint64_t ops = 0;
  double op_ns = 0;
  // Layer means.
  double begin_ns = 0, notify_ns = 0, notify_self_ns = 0;
  double commit_ns = 0, commit_self_ns = 0;
  double handoff_ns = 0, fanout_makespan_ns = 0, deferred_ns = 0;
  double condition_ns = 0, action_ns = 0, get_ns = 0, put_ns = 0;
  double orders_notify_ns = 0;
  std::uint64_t begin_n = 0, notify_n = 0, commit_n = 0, handoff_n = 0,
                fanout_n = 0, deferred_n = 0, condition_n = 0, action_n = 0,
                get_n = 0, put_n = 0, orders_notify_n = 0;
  // Per-op self-time shares (ns per op); they sum with `unaccounted_ns` to
  // `op_ns` exactly.
  double core_self_ns = 0, rules_self_ns = 0, oodb_self_ns = 0;
  double unaccounted_ns = 0;
};

Ledger Analyze(std::vector<Span> spans, std::vector<OpInterval> ops);

class Report;
/// Reports the ledger rows (`ledger.*`) and the op count behind them.
void ReportLedger(const Ledger& ledger, Report* report);

/// Writes the spans of the first `max_ops` ops as Chrome trace-event JSON.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<OpInterval>& ops, std::size_t max_ops);

}  // namespace e2e

#endif  // E2EBENCH_DRIVER_LEDGER_H_
