#ifndef SENTINEL_OBS_PROFILER_H_
#define SENTINEL_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/symbol.h"
#include "obs/metrics.h"

namespace sentinel::obs {

class MetricSink;

/// Continuous profiling plane (DESIGN.md §15). Opt-in (off by default) and
/// always cheap when off: every feed is gated on one relaxed load of the
/// mode, the same budget discipline as SpanTracer. Two feeds:
///
///   1. *Exact attribution* — the obs::Probe at each attributed seam
///      (condition, action, commit, operator-node evaluation, event dispatch,
///      commit barrier, GED forward) hands its one wall interval plus a
///      thread-CPU delta (CLOCK_THREAD_CPUTIME_ID) to per-rule,
///      per-event-node, per-interned-class-symbol or global cost accounts.
///      Accounts store sharded counters so concurrent scheduler workers
///      never contend on one cache line.
///   2. *Lock contention* — the striped detector buffer mutexes, the storage
///      lock manager and the WAL group-commit barrier report try-then-wait
///      accounting (acquisitions, contended acquisitions, summed wait-ns)
///      into named contention sites; TopContended() is the top-K table.
///
/// The folded-stack export (FoldedStacks) is rendered from the feed-1 rule
/// cells, weighted by exact wall nanoseconds.
///
/// Accounts are never erased while the profiler lives (Reset zeroes counters
/// in place), so cached account/site pointers held by nodes and storage
/// components stay valid for the profiler's lifetime.
class Profiler {
 public:
  enum class Mode : std::uint8_t { kOff = 0, kOn = 1 };

  Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The instrumentation gate: one relaxed load when profiling is off.
  bool enabled() const {
    return mode_.load(std::memory_order_relaxed) == Mode::kOn;
  }
  Mode mode() const { return mode_.load(std::memory_order_relaxed); }

  /// Enables the feeds and starts the duration clock. Idempotent.
  void Start();
  /// Disables the feeds and stops the duration clock. Idempotent.
  void Stop();
  /// Zeroes every account and contention site in place (pointers stay
  /// valid). Sharded-counter Reset races concurrent writers
  /// (see ShardedCounter::Reset); call while profiling is off or accept a
  /// benign undercount.
  void Reset();

  /// Steady-clock nanoseconds (same clock as SpanTracer::NowNs).
  static std::uint64_t NowNs();
  /// Per-thread CPU time in nanoseconds (CLOCK_THREAD_CPUTIME_ID; 0 when
  /// the platform lacks it).
  static std::uint64_t ThreadCpuNs();

  struct CostSnapshot {
    std::uint64_t invocations = 0;
    std::uint64_t cpu_ns = 0;
    std::uint64_t wall_ns = 0;
  };

  /// One (invocations, cpu, wall) account cell, sharded per field.
  struct CostCell {
    ShardedCounter invocations;
    ShardedCounter cpu_ns;
    ShardedCounter wall_ns;

    void Record(std::uint64_t cpu, std::uint64_t wall) {
      invocations.Add(1);
      cpu_ns.Add(cpu);
      wall_ns.Add(wall);
    }
    CostSnapshot Snap() const {
      return {invocations.value(), cpu_ns.value(), wall_ns.value()};
    }
    void Zero() {
      invocations.Reset();
      cpu_ns.Reset();
      wall_ns.Reset();
    }
  };

  enum class RuleSeam : int { kCondition = 0, kAction = 1, kCommit = 2 };
  static constexpr int kRuleSeams = 3;
  static const char* RuleSeamName(RuleSeam seam);

  /// Process-level seams that belong to no single rule or node.
  enum class GlobalSeam : int { kCommitBarrier = 0, kGedForward = 1 };
  static constexpr int kGlobalSeams = 2;
  static const char* GlobalSeamName(GlobalSeam seam);

  // -- Feed 1: exact attribution ---------------------------------------------
  // obs::Probe records into these cells (DESIGN.md §9): the account getters
  // return pointers that stay valid for the profiler's lifetime.

  /// Per-rule condition/action/commit cells plus the class symbols that
  /// triggered the rule (for the shard-steering report).
  struct RuleCost {
    std::array<CostCell, kRuleSeams> seams;
    std::mutex sym_mu;
    std::vector<common::SymbolId> symbols;  // sorted distinct
  };
  RuleCost* GetRuleCost(const std::string& name);

  /// Attributes one firing's own compute (condition + action, as measured by
  /// their probes) to the distinct class symbols among the triggering
  /// occurrence's constituents (split evenly), and remembers the
  /// rule<->symbol coupling. Call only after enabled() passed.
  void AttributeRuleCost(RuleCost* rule, const detector::Occurrence& occurrence,
                         std::uint64_t cpu, std::uint64_t wall);

  /// Per-event-node operator-evaluation account (nodes cache it when their
  /// instruments are set, so the Emit path never takes the account-map lock).
  CostCell* NodeAccount(const std::string& node_name);

  /// Per-class-symbol primitive-dispatch account (event rates for the shard
  /// report); null for kInvalidSymbol.
  CostCell* SymbolEvents(common::SymbolId sym);

  /// Commit-barrier / GED-forward seams.
  CostCell* GlobalAccount(GlobalSeam seam) {
    return &global_[static_cast<int>(seam)];
  }

  // -- Feed 2: lock contention -----------------------------------------------

  struct ContentionSite {
    std::string name;
    ShardedCounter acquisitions;  // profiled acquisitions (profiling on)
    ShardedCounter contended;     // acquisitions that had to wait
    ShardedCounter wait_ns;       // summed wait time of contended ones
  };

  /// Get-or-create a named contention site; the pointer is stable for the
  /// profiler's lifetime.
  ContentionSite* GetContentionSite(const std::string& name);

  /// Try-then-wait lock acquisition: uncontended acquisitions cost one
  /// try_lock; contended ones time the blocking wait. Off-mode is a plain
  /// lock (one relaxed load of the gate).
  template <typename Mutex>
  static std::unique_lock<Mutex> LockContended(const Profiler* profiler,
                                               ContentionSite* site,
                                               Mutex& mu) {
    if (profiler == nullptr || site == nullptr || !profiler->enabled()) {
      return std::unique_lock<Mutex>(mu);
    }
    std::unique_lock<Mutex> lock(mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      const std::uint64_t t0 = NowNs();
      lock.lock();
      site->contended.Add(1);
      site->wait_ns.Add(NowNs() - t0);
    }
    site->acquisitions.Add(1);
    return lock;
  }

  /// Condition-wait sites (lock manager grants, WAL barrier) report their
  /// already-measured waits directly. Call only after enabled() passed.
  static void RecordSiteAcquire(ContentionSite* site) {
    site->acquisitions.Add(1);
  }
  static void RecordSiteWait(ContentionSite* site, std::uint64_t wait_ns) {
    site->contended.Add(1);
    site->wait_ns.Add(wait_ns);
  }

  struct ContentionSnapshot {
    std::string site;
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;
    std::uint64_t wait_ns = 0;
  };
  /// Top-K contended sites, ordered by summed wait-ns descending. Sites with
  /// zero acquisitions are skipped.
  std::vector<ContentionSnapshot> TopContended(std::size_t k) const;

  // -- Snapshots & export ----------------------------------------------------

  struct RuleSnapshot {
    std::string name;
    std::array<CostSnapshot, kRuleSeams> seams;
    std::vector<std::string> symbols;  // distinct triggering class symbols
    std::uint64_t total_wall_ns() const {
      std::uint64_t total = 0;
      for (const CostSnapshot& s : seams) total += s.wall_ns;
      return total;
    }
  };
  struct NodeSnapshot {
    std::string name;
    CostSnapshot eval;
  };
  struct SymbolSnapshot {
    std::string symbol;
    CostSnapshot events;  // primitive dispatches for this class symbol
    CostSnapshot rules;   // attributed rule condition+action cost
  };

  std::vector<RuleSnapshot> RuleSnapshots() const;
  std::vector<NodeSnapshot> NodeSnapshots() const;
  std::vector<SymbolSnapshot> SymbolSnapshots() const;
  CostSnapshot GlobalSnapshot(GlobalSeam seam) const;

  /// Collapsed-stack lines ("rule;seam wall_ns\n", one per rule seam with
  /// nonzero wall time, in rule-name order), the input format of standard
  /// flamegraph tooling.
  std::string FoldedStacks() const;
  /// The rule-seam intervals those lines sum: the rule cells' invocations.
  std::uint64_t samples() const;

  /// Nanoseconds profiling has been enabled (cumulative across start/stop).
  std::uint64_t duration_ns() const;

  /// Name of the rule with the largest total wall-ns ("" when no rule has
  /// recorded cost) — the watchdog names it in /healthz detail on degrade.
  std::string TopCostRule() const;

  /// The /profile body: every feed as one JSON object (the input of
  /// tools/shard_plan.py — see DESIGN.md §15 for the schema).
  std::string ProfileJson() const;

  /// The sentinel_profile_* rows (mode, duration and seams always; the
  /// per-rule, per-node, per-symbol and contention rows once recorded).
  void WriteMetrics(MetricSink& s) const;

 private:
  struct SymbolCost {
    CostCell events;
    CostCell rules;
  };

  SymbolCost* GetSymbolCost(common::SymbolId sym);

  std::atomic<Mode> mode_{Mode::kOff};
  std::mutex lifecycle_mu_;
  std::atomic<std::uint64_t> enabled_since_ns_{0};
  std::atomic<std::uint64_t> active_ns_{0};

  mutable std::shared_mutex rules_mu_;
  std::map<std::string, std::unique_ptr<RuleCost>> rules_;

  mutable std::shared_mutex nodes_mu_;
  std::map<std::string, std::unique_ptr<CostCell>> nodes_;

  mutable std::shared_mutex symbols_mu_;
  std::deque<std::unique_ptr<SymbolCost>> symbols_;  // indexed by SymbolId

  std::array<CostCell, kGlobalSeams> global_;

  mutable std::shared_mutex sites_mu_;
  std::map<std::string, std::unique_ptr<ContentionSite>> sites_;
};

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_PROFILER_H_
