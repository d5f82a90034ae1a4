#ifndef SENTINEL_OBS_PROBE_H_
#define SENTINEL_OBS_PROBE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace sentinel::obs {

class ProvenanceTracer;

/// The database's instrumentation providers (DESIGN.md §9). Each component
/// receives one copy through `set_instruments` and hands it to every Probe it
/// opens; any pointer may be null. The providers gate themselves (span mode,
/// profiler mode, provenance enable), so wiring them costs nothing when off.
struct Instruments {
  SpanTracer* spans = nullptr;
  Profiler* profiler = nullptr;
  ProvenanceTracer* provenance = nullptr;
};

/// The sinks one pipeline seam feeds. Every field is optional; a seam names
/// exactly the recorders it reports to.
struct Seam {
  std::optional<SpanKind> span = std::nullopt;  // no span when empty
  storage::TxnId txn = storage::kInvalidTxnId;
  std::uint64_t subtxn = 0;
  std::uint64_t parent = 0;  // explicit span parent; 0 = scope stack / txn
  LatencyHistogram* histogram = nullptr;
  Profiler::CostCell* cost = nullptr;         // used only while profiling
  Profiler::ContentionSite* site = nullptr;   // wait time, while profiling
  bool timed = false;  // read the clock even with no live sink (End's value)
};

/// One instrumented interval. Start checks the span and profiler gates once
/// and reads the steady clock once (only when some sink is live); End reads
/// it once more and hands that single interval to the histogram, the span
/// (as its timestamps), the profiler cost cell (plus a thread-CPU pair,
/// read only while profiling) and the contention site. So span durations,
/// histogram sums and profiler wall totals agree by construction.
///
/// End() marks a completed interval. A probe destroyed without End() — an
/// exception, or an early error return — still closes its span (the trace
/// shows the failed attempt) but leaves histogram, cost and site to
/// completed intervals.
class Probe {
 public:
  Probe() = default;  // inert until Start
  Probe(const Instruments& in, const Seam& seam) { Start(in, seam); }
  /// `label()` builds the span label; it runs only when the span gate
  /// passed, and before the clock starts.
  template <typename Label>
  Probe(const Instruments& in, const Seam& seam, Label&& label) {
    Start(in, seam, std::forward<Label>(label));
  }
  ~Probe() {
    if (timed_) Close(/*completed=*/false);
  }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void Start(const Instruments& in, const Seam& seam) {
    Start(in, seam, [] { return std::string(); });
  }
  template <typename Label>
  void Start(const Instruments& in, const Seam& seam, Label&& label) {
    if (timed_) return;
    if (Gate(in, seam)) {
      Open(in, seam, std::string(label()));
    } else if (timed_) {
      Open(in, seam, std::nullopt);
    }
  }

  std::uint64_t span_id() const { return span_.id(); }
  void AnnotateRemote(std::uint64_t trace, std::uint64_t remote_parent) {
    span_.AnnotateRemote(trace, remote_parent);
  }

  /// The profiler gate passed: resolve lazily-created accounts (set_cost).
  bool profiling() const { return profiler_ != nullptr; }
  void set_cost(Profiler::CostCell* cost) { cost_ = cost; }

  /// Closes a completed interval and returns its wall nanoseconds (0 when
  /// no sink was live and the seam is not `timed`; a second call records
  /// nothing and returns 0).
  std::uint64_t End() { return timed_ ? Close(/*completed=*/true) : 0; }
  /// Thread-CPU nanoseconds of the closed interval (0 unless profiling).
  std::uint64_t cpu_ns() const { return cpu_ns_; }

 private:
  /// Checks the gates and picks the sinks; returns the span gate. Inline:
  /// with every gate off this is the whole cost of a probe.
  bool Gate(const Instruments& in, const Seam& seam) {
    const bool spans = seam.span.has_value() && in.spans != nullptr &&
                       in.spans->enabled_for(*seam.span);
    if (in.profiler != nullptr && in.profiler->enabled()) {
      profiler_ = in.profiler;
    }
    timed_ = seam.timed || seam.histogram != nullptr || spans ||
             profiler_ != nullptr;
    histogram_ = seam.histogram;
    cost_ = seam.cost;
    site_ = seam.site;
    return spans;
  }
  /// Reads the start clock(s) and opens the span when labelled.
  void Open(const Instruments& in, const Seam& seam,
            std::optional<std::string> label);
  std::uint64_t Close(bool completed);

  SpanScope span_;
  Profiler* profiler_ = nullptr;  // set only when the profiler gate passed
  LatencyHistogram* histogram_ = nullptr;
  Profiler::CostCell* cost_ = nullptr;
  Profiler::ContentionSite* site_ = nullptr;
  std::uint64_t t0_ = 0;
  std::uint64_t cpu0_ = 0;
  std::uint64_t cpu_ns_ = 0;
  bool timed_ = false;
};

/// The timed phases of one rule firing, in the order they run.
enum class FiringPhase : std::uint8_t {
  kNone = 0,
  kCondition,
  kAction,
  kCommit,
  kAbort,
};

/// What a firing probe records into.
struct FiringSeam {
  storage::TxnId txn = storage::kInvalidTxnId;
  std::uint64_t subtxn = 0;
  std::uint64_t parent = 0;  // triggering span; 0 = scope stack / txn
  common::SymbolId rule = common::kInvalidSymbol;  // renders span labels
  RuleMetrics* metrics = nullptr;  // the phase histograms
};

/// One rule firing timed as one interval cut at its phase boundaries
/// (RuleScheduler::Execute). The clock is read once when the probe opens
/// and once per Mark: each Mark closes the current phase and its timestamp
/// opens the next, so adjacent phases share their boundary. A completed
/// phase hands its interval to the phase histogram (condition, action,
/// commit, abort), the rule's profiler cell (condition, action, commit) and
/// the condition/action child span. The subtxn span runs from the open to
/// the last boundary; it and its children are committed as one
/// FiringRecord when the probe ends.
///
/// A phase still open when the next is entered, or when the probe ends (an
/// exception), closes as a failed attempt: its span closes, but histogram
/// and profiler cell take only completed phases — the Probe contract.
class FiringProbe {
 public:
  FiringProbe(const Instruments& in, const FiringSeam& seam);
  ~FiringProbe() { End(); }

  FiringProbe(const FiringProbe&) = delete;
  FiringProbe& operator=(const FiringProbe&) = delete;

  /// The profiler gate passed: resolve the rule's cost cells (set_cost).
  bool profiling() const { return profiler_ != nullptr; }
  void set_cost(Profiler::RuleCost* cost) { cost_ = cost; }

  /// Names the phase the interval since the last boundary belongs to. No
  /// clock read, unless a phase is still open (it closes as failed).
  void Enter(FiringPhase phase);
  /// Closes the current phase as completed with one clock read, which is
  /// also the next phase's start. Returns the phase's wall nanoseconds.
  std::uint64_t Mark();
  /// Thread-CPU nanoseconds of the last closed phase (0 unless profiling).
  std::uint64_t cpu_ns() const { return cpu_ns_; }
  /// Ends the firing at its last boundary (an open phase first closes as
  /// failed, at one clock read) and commits the firing's record. A second
  /// call does nothing.
  void End();

 private:
  std::uint64_t Close(bool completed, std::uint64_t t);

  FiringScope span_;
  Profiler* profiler_ = nullptr;  // set only when the profiler gate passed
  Profiler::RuleCost* cost_ = nullptr;
  RuleMetrics* const metrics_;
  FiringPhase phase_ = FiringPhase::kNone;
  std::uint64_t last_ = 0;      // the last boundary: the open phase's start
  std::uint64_t cpu_last_ = 0;  // thread CPU at that boundary (profiling)
  std::uint64_t cpu_ns_ = 0;
  bool ended_ = false;
};

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_PROBE_H_
