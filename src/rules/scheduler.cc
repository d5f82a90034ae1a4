#include "rules/scheduler.h"

#include <sched.h>

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "detector/local_detector.h"
#include "obs/metric_sink.h"
#include "obs/trace.h"

namespace sentinel::rules {

namespace {

thread_local RuleScheduler::Frame* t_frame = nullptr;
thread_local RuleScheduler::BatchScope* t_batch_scope = nullptr;

// Batch storage for each Drain nesting level of this thread, kept across
// calls so popping a batch allocates nothing once warm. A deque, so a level
// a nested Drain adds never moves the storage of the levels around it.
thread_local std::deque<std::vector<Firing>> t_popped;
thread_local std::size_t t_drain_depth = 0;

/// Lexicographic priority order: larger element wins; a path extending a
/// prefix wins over the prefix (depth-first).
bool PathLess(const std::vector<int>& a, const std::vector<int>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return a.size() < b.size();
}

/// CPUs this process may run on (its affinity mask), at least 1.
std::size_t AffinityCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    return std::max(1, CPU_COUNT(&allowed));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A firing's expected cost: the mean condition + action + commit time from
/// its rule's always-on histograms (0 before the rule has run).
std::uint64_t ExpectedCostNs(const Rule* rule) {
  if (rule == nullptr || !rule->enabled()) return 0;
  const obs::RuleMetrics& m = rule->metrics();
  return m.condition_ns.mean_ns() + m.action_ns.mean_ns() +
         m.commit_ns.mean_ns();
}

}  // namespace

/// One popped batch, over the calling Drain's batch storage. The caller
/// and any pool helpers claim firings through `next`. In a pooled batch
/// `unfinished` counts firings not yet done (claimed or not), so the
/// caller, once nothing is left to claim, waits only for firings a helper
/// is still running. Pooled batches are shared with their helpers, and a
/// helper that starts after the batch is done finds nothing to claim, so it
/// never reads `firings`.
struct RuleScheduler::Batch {
  Batch(const RuleScheduler* owner, const std::vector<Firing>& popped,
        bool one_class, bool pooled)
      : owner(owner),
        firings(popped),
        size(popped.size()),
        one_class(one_class),
        pooled(pooled),
        unfinished(popped.size()) {}

  // The floor a Drain nested in one of this batch's firings keeps lower
  // classes behind: the batch's class while siblings are unclaimed. Only a
  // kPriorityClasses batch is one class; a kConcurrent batch mixes
  // priorities, and each of its firings' nested firings runs at once.
  const std::vector<int>* floor() const {
    if (!one_class || next.load(std::memory_order_relaxed) >= size) {
      return nullptr;
    }
    return &firings.front().priority_path;
  }
  // kAbortTop: transactions a firing of this batch doomed; their unclaimed
  // siblings are dropped, as AbortTop drops the queued ones.
  bool Doomed(storage::TxnId txn) {
    if (!any_doomed.load(std::memory_order_acquire)) return false;
    std::lock_guard<std::mutex> lock(mu);
    return std::find(doomed.begin(), doomed.end(), txn) != doomed.end();
  }
  void Doom(storage::TxnId txn) {
    std::lock_guard<std::mutex> lock(mu);
    doomed.push_back(txn);
    any_doomed.store(true, std::memory_order_release);
  }

  const RuleScheduler* const owner;
  const std::vector<Firing>& firings;
  const std::size_t size;  // firings.size(), readable after firings clear
  const bool one_class;
  const bool pooled;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> unfinished;
  std::atomic<bool> any_doomed{false};
  std::mutex mu;  // guards doomed; with done_cv, the caller's final wait
  std::condition_variable done_cv;
  std::vector<storage::TxnId> doomed;
};

thread_local RuleScheduler::Batch* RuleScheduler::t_batch_ = nullptr;

const char* ContingencyPolicyToString(ContingencyPolicy policy) {
  switch (policy) {
    case ContingencyPolicy::kSkipRule:
      return "SKIP_RULE";
    case ContingencyPolicy::kAbortTop:
      return "ABORT_TOP";
  }
  return "?";
}

const RuleScheduler::Frame* RuleScheduler::CurrentFrame() { return t_frame; }

RuleScheduler::RuleScheduler(txn::NestedTransactionManager* nested,
                             oodb::Database* db, const Options& options)
    : policy_(options.policy),
      contingency_(options.contingency),
      nested_(nested),
      db_(db),
      pool_(std::make_unique<ThreadPool>(options.workers)) {
  parallelism_ = std::min(AffinityCpus(), pool_->worker_count() + 1);
  detached_worker_ = std::thread([this] { DetachedLoop(); });
}

RuleScheduler::~RuleScheduler() {
  {
    std::lock_guard<std::mutex> lock(detached_mu_);
    stop_detached_ = true;
  }
  detached_cv_.notify_all();
  detached_worker_.join();
  pool_.reset();
}

RuleScheduler::BatchScope::BatchScope(RuleScheduler* scheduler)
    : scheduler_(scheduler), prev_(t_batch_scope) {
  t_batch_scope = this;
}

RuleScheduler::BatchScope::~BatchScope() {
  t_batch_scope = prev_;
  if (!buffered_.empty()) scheduler_->EnqueueBatch(std::move(buffered_));
}

void RuleScheduler::Enqueue(Firing firing) {
  if (t_batch_scope != nullptr && t_batch_scope->scheduler_ == this) {
    t_batch_scope->buffered_.push_back(std::move(firing));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(std::move(firing));
  pending_count_.store(pending_.size(), std::memory_order_release);
}

void RuleScheduler::EnqueueBatch(std::vector<Firing> firings) {
  if (firings.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (Firing& firing : firings) pending_.push_back(std::move(firing));
  pending_count_.store(pending_.size(), std::memory_order_release);
}

void RuleScheduler::EnqueueDetached(Firing firing) {
  // A detached firing outlives the Notify call that raised it, but its
  // constituent occurrences may reference caller-owned parameter lists that
  // are only guaranteed to live for the duration of that call. Pin them by
  // deep-copying the occurrence (shared with the detection's other firings)
  // and every constituent (and its ParamList) onto fresh heap-owned storage
  // before the firing crosses onto the detached queue.
  if (firing.occurrence != nullptr) {
    auto pinned = std::make_shared<detector::Occurrence>(*firing.occurrence);
    for (auto& constituent : pinned->constituents) {
      if (constituent == nullptr) continue;
      auto copy =
          std::make_shared<detector::PrimitiveOccurrence>(*constituent);
      if (copy->params != nullptr) {
        copy->params = std::make_shared<detector::ParamList>(*copy->params);
      }
      constituent = std::move(copy);
    }
    firing.occurrence = std::move(pinned);
  }
  {
    std::lock_guard<std::mutex> lock(detached_mu_);
    detached_pending_.push_back(std::move(firing));
    detached_count_.store(detached_pending_.size() + detached_busy_,
                          std::memory_order_release);
  }
  detached_cv_.notify_one();
}

void RuleScheduler::PopBatch(SchedulingPolicy policy,
                             const std::vector<int>* floor,
                             std::vector<Firing>* batch) {
  batch->clear();
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) return;

  // Index of the highest-priority pending firing (the first enqueued of its
  // class: only a strictly higher path replaces it).
  std::size_t best = 0;
  for (std::size_t i = 1; i < pending_.size(); ++i) {
    if (PathLess(pending_[best].priority_path, pending_[i].priority_path)) {
      best = i;
    }
  }
  if (floor != nullptr && PathLess(pending_[best].priority_path, *floor)) {
    return;
  }
  switch (policy) {
    case SchedulingPolicy::kSerial: {
      batch->push_back(std::move(pending_[best]));
      pending_.erase(pending_.begin() + static_cast<long>(best));
      break;
    }
    case SchedulingPolicy::kConcurrent: {
      for (Firing& f : pending_) batch->push_back(std::move(f));
      pending_.clear();
      break;
    }
    case SchedulingPolicy::kPriorityClasses: {
      // Everything sharing the top priority path forms the batch, in
      // enqueue order. Nothing before `best` is in the top class, so the
      // rest is compacted in place from there.
      batch->push_back(std::move(pending_[best]));
      std::size_t keep = best;
      for (std::size_t i = best + 1; i < pending_.size(); ++i) {
        if (pending_[i].priority_path == batch->front().priority_path) {
          batch->push_back(std::move(pending_[i]));
        } else {
          if (keep != i) pending_[keep] = std::move(pending_[i]);
          ++keep;
        }
      }
      pending_.erase(pending_.begin() + static_cast<long>(keep),
                     pending_.end());
      break;
    }
  }
  pending_count_.store(pending_.size(), std::memory_order_release);
}

bool RuleScheduler::ShouldPool(const std::vector<Firing>& batch) const {
  // Helpers still waiting to start would queue new ones behind them; until
  // the pool's first hand-off is measured this also keeps the batches that
  // follow the first pooled one from assuming a free hand-off.
  if (parallelism_ < 2 || batch.size() < 2 || pool_->queued() != 0) {
    return false;
  }
  std::uint64_t total = 0;
  std::uint64_t longest = 0;
  for (const Firing& f : batch) {
    const std::uint64_t cost = ExpectedCostNs(f.rule);
    total += cost;
    longest = std::max(longest, cost);
  }
  const std::uint64_t makespan = std::max(longest, total / parallelism_);
  return handoff_ns().mean_ns() + makespan < total;
}

void RuleScheduler::RunBatch(Batch& batch) {
  Batch* const outer = t_batch_;
  t_batch_ = &batch;
  for (std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
       i < batch.size;
       i = batch.next.fetch_add(1, std::memory_order_relaxed)) {
    const Firing& firing = batch.firings[i];
    if (!batch.Doomed(firing.txn) && Execute(firing)) batch.Doom(firing.txn);
    // The caller's wait reads `unfinished` under `mu`: taking `mu` after the
    // last decrement means the caller either sees 0 or is already waiting.
    if (batch.pooled &&
        batch.unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(batch.mu);
      batch.done_cv.notify_all();
    }
  }
  t_batch_ = outer;
}

void RuleScheduler::Drain() {
  // Drain is called after every notification; when no rule fired there is
  // nothing queued — return without touching the queue lock.
  if (pending_count_.load(std::memory_order_acquire) == 0) return;
  if (t_popped.size() <= t_drain_depth) t_popped.emplace_back();
  std::vector<Firing>& popped = t_popped[t_drain_depth];
  struct Level {
    Level() { ++t_drain_depth; }
    ~Level() { --t_drain_depth; }
  } level;
  for (;;) {
    if (pending_count_.load(std::memory_order_acquire) == 0) return;
    // Nested in a firing (its action raised an event) whose class still has
    // unclaimed siblings: run only what ranks at or above that class — the
    // nested firings — and leave lower classes to the outer Drain.
    const std::vector<int>* floor =
        t_batch_ != nullptr && t_batch_->owner == this ? t_batch_->floor()
                                                       : nullptr;
    const SchedulingPolicy policy = this->policy();
    const bool one_class = policy == SchedulingPolicy::kPriorityClasses;
    PopBatch(policy, floor, &popped);
    if (popped.empty()) return;
    if (!ShouldPool(popped)) {
      inline_batches_.fetch_add(1, std::memory_order_relaxed);
      Batch batch(this, popped, one_class, /*pooled=*/false);
      RunBatch(batch);
      popped.clear();
      continue;
    }
    pooled_batches_.fetch_add(1, std::memory_order_relaxed);
    auto batch =
        std::make_shared<Batch>(this, popped, one_class, /*pooled=*/true);
    const std::size_t helpers = std::min(parallelism_, batch->size) - 1;
    for (std::size_t i = 0; i < helpers; ++i) {
      pool_->Submit([this, batch] { RunBatch(*batch); });
    }
    RunBatch(*batch);
    // Nothing left to claim: wait for the firings helpers are running.
    {
      std::unique_lock<std::mutex> lock(batch->mu);
      batch->done_cv.wait(lock, [&batch] {
        return batch->unfinished.load(std::memory_order_acquire) == 0;
      });
    }
    // Every firing is done; a helper still to start reads only the claim
    // cursor, so the firings die here, within the Drain that ran them.
    popped.clear();
  }
}

bool RuleScheduler::Execute(const Firing& firing) {
  Rule* rule = firing.rule;
  if (rule == nullptr || !rule->enabled()) return false;

  obs::ProvenanceTracer* tracer = ins_.provenance;
  const bool tracing = tracer != nullptr && tracer->enabled();

  static const detector::Occurrence kNoOccurrence;
  RuleContext ctx;
  ctx.occurrence = firing.occurrence != nullptr ? firing.occurrence.get()
                                                : &kNoOccurrence;
  ctx.context = firing.context;
  ctx.txn = firing.txn;
  ctx.db = db_;

  // Package condition+action as a subtransaction (paper Fig. 3).
  txn::SubTxnId sub = txn::kInvalidSubTxn;
  Status sub_status;
  if (nested_ != nullptr && firing.txn != storage::kInvalidTxnId) {
    auto begun = nested_->Begin(firing.txn, firing.parent_subtxn);
    if (!begun.ok() && firing.parent_subtxn != txn::kInvalidSubTxn) {
      // The triggering rule's subtransaction has already committed (its
      // locks were inherited upward), so attach this nested rule directly
      // under the top-level transaction — it shares the retained locks.
      begun = nested_->Begin(firing.txn, txn::kInvalidSubTxn);
    }
    if (begun.ok()) {
      sub = *begun;
      if (tracing) {
        tracer->Record(obs::EdgeKind::kSubTxn, rule->name(), "begin",
                       firing.txn, firing.context, sub);
      }
    } else {
      sub_status = begun.status();
      SENTINEL_LOG(kWarn) << "subtransaction begin failed for rule "
                          << rule->name() << ": " << sub_status.ToString();
    }
  }
  ctx.subtxn = sub;

  // One probe times the whole firing, cut at its phase boundaries into
  // condition, action and commit (or abort). Its subtxn span is parented
  // under the triggering detection's span, captured into the firing when it
  // was enqueued: the execution usually happens on a different thread, so
  // the per-thread scope stack cannot supply it.
  obs::FiringProbe probe(ins_, {.txn = firing.txn,
                                .subtxn = sub,
                                .parent = firing.trigger_span,
                                .rule = rule->name_symbol(),
                                .metrics = &rule->metrics()});
  // The per-rule profiler cells the phases record into.
  obs::Profiler::RuleCost* cost = nullptr;
  if (probe.profiling()) {
    cost = ins_.profiler->GetRuleCost(rule->name());
    probe.set_cost(cost);
  }
  std::uint64_t own_cpu = 0;   // condition + action, for symbol attribution
  std::uint64_t own_wall = 0;

  // Publish this firing as the current frame so nested triggers (raised from
  // the action) inherit txn/priority/depth.
  Frame frame{.txn = firing.txn,
              .subtxn = sub,
              .priority_path = firing.priority_path,
              .depth = firing.depth};
  Frame* prev_frame = t_frame;
  t_frame = &frame;

  int seen = max_depth_.load(std::memory_order_relaxed);
  while (firing.depth > seen &&
         !max_depth_.compare_exchange_weak(seen, firing.depth)) {
  }

  // Run condition + action inside a containment boundary (paper §2.3: rule
  // failures are isolated in their subtransaction). A thrown exception or
  // an injected fault aborts only this rule's subtransaction — it must
  // never escape into the worker thread and kill the process.
  bool condition_held = true;
  Status failure;
  if (FailPointRegistry::AnyActive()) {
    FailPointAction action =
        FailPointRegistry::Instance().Evaluate("scheduler.execute");
    if (action.fired()) failure = action.ToStatus("scheduler.execute");
  }
  if (failure.ok()) {
    try {
      if (rule->condition()) {
        // Conditions are side-effect free: suppress event signalling while
        // the condition function runs (§3.2.1).
        detector::LocalEventDetector::SuppressScope guard;
        probe.Enter(obs::FiringPhase::kCondition);
        condition_held = rule->condition()(ctx);
        own_wall += probe.Mark();
        own_cpu += probe.cpu_ns();
      }
      if (condition_held && rule->action()) {
        probe.Enter(obs::FiringPhase::kAction);
        rule->action()(ctx);
        own_wall += probe.Mark();
        own_cpu += probe.cpu_ns();
      }
    } catch (const std::exception& e) {
      failure = Status::Internal("rule " + rule->name() +
                                 " threw: " + e.what());
    } catch (...) {
      failure =
          Status::Internal("rule " + rule->name() + " threw a non-standard "
                           "exception");
    }
  }

  t_frame = prev_frame;

  if (sub != txn::kInvalidSubTxn) {
    // The time this subtransaction spent blocked acquiring nested locks,
    // handed back by the lock table as the subtxn finishes.
    std::uint64_t lock_wait_ns = 0;
    if (failure.ok()) {
      probe.Enter(obs::FiringPhase::kCommit);
      Status commit = nested_->Commit(sub, &lock_wait_ns);
      probe.Mark();
      if (tracing) {
        tracer->Record(obs::EdgeKind::kSubTxn, rule->name(),
                       commit.ok() ? "commit" : "commit-failed", firing.txn,
                       firing.context, sub);
      }
      if (!commit.ok()) {
        SENTINEL_LOG(kWarn) << "subtransaction commit failed for rule "
                            << rule->name() << ": " << commit.ToString();
        sub_status = commit;
      }
    } else {
      probe.Enter(obs::FiringPhase::kAbort);
      Status aborted = nested_->Abort(sub, &lock_wait_ns);
      probe.Mark();
      if (tracing) {
        tracer->Record(obs::EdgeKind::kSubTxn, rule->name(), "abort",
                       firing.txn, firing.context, sub);
      }
      if (!aborted.ok()) {
        SENTINEL_LOG(kWarn) << "subtransaction abort failed for rule "
                            << rule->name() << ": " << aborted.ToString();
      }
    }
    rule->metrics().lock_wait_ns.Record(lock_wait_ns);
  }
  // The firing ends with its subtransaction: its record is committed before
  // the bookkeeping below, so a postmortem AbortTop takes shows it.
  probe.End();

  if (cost != nullptr) {
    ins_.profiler->AttributeRuleCost(cost, *ctx.occurrence, own_cpu,
                                     own_wall);
  }

  bool doomed = false;
  if (failure.ok()) {
    if (condition_held) {
      rule->CountFiring();
      executed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      rejected_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    sub_status = failure;
    const ContingencyPolicy contingency = this->contingency();
    SENTINEL_LOG(kWarn) << "rule " << rule->name() << " failed (contained, "
                        << ContingencyPolicyToString(contingency)
                        << "): " << failure.ToString();
    if (contingency == ContingencyPolicy::kAbortTop &&
        firing.txn != storage::kInvalidTxnId) {
      AbortTop(firing.txn);
      doomed = true;
    }
  }
  for (const ExecutionObserver& observer : observers_) {
    observer(firing, condition_held, sub_status);
  }
  return doomed;
}

void RuleScheduler::AbortTop(storage::TxnId txn) {
  abort_top_.fetch_add(1, std::memory_order_relaxed);
  PostmortemHook hook;
  {
    // Drop this transaction's queued firings: its effects are being rolled
    // back, so running more of its rules would be wasted (and unsafe) work.
    std::lock_guard<std::mutex> lock(mu_);
    hook = postmortem_hook_;
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [txn](const Firing& f) {
                                    return f.txn == txn;
                                  }),
                   pending_.end());
    pending_count_.store(pending_.size(), std::memory_order_release);
  }
  // Dump the postmortem before the abort tears down the transaction state
  // it describes (open spans, in-flight subtransactions, held locks).
  if (hook) hook(txn);
  if (db_ != nullptr) {
    Status st = db_->Abort(txn);
    if (!st.ok()) {
      SENTINEL_LOG(kWarn) << "contingency abort of txn " << txn
                          << " failed: " << st.ToString();
    }
  }
}

void RuleScheduler::DetachedLoop() {
  for (;;) {
    Firing firing;
    {
      std::unique_lock<std::mutex> lock(detached_mu_);
      detached_cv_.wait(lock, [this] {
        return stop_detached_ || !detached_pending_.empty();
      });
      if (stop_detached_ && detached_pending_.empty()) return;
      firing = std::move(detached_pending_.front());
      detached_pending_.pop_front();
      ++detached_busy_;
      detached_count_.store(detached_pending_.size() + detached_busy_,
                            std::memory_order_release);
    }
    // Detached rules run in their own top-level transaction, causally
    // independent of the triggering one (paper §2.2, §4).
    storage::TxnId detached_txn = storage::kInvalidTxnId;
    if (db_ != nullptr) {
      auto begun = db_->Begin();
      if (begun.ok()) detached_txn = *begun;
    }
    firing.txn = detached_txn;
    firing.parent_subtxn = txn::kInvalidSubTxn;
    Execute(firing);
    if (detached_txn != storage::kInvalidTxnId) {
      Status st = db_->Commit(detached_txn);
      if (!st.ok()) {
        SENTINEL_LOG(kWarn) << "detached txn commit failed: " << st.ToString();
      }
    }
    // Nested triggers raised by a detached action execute inline here.
    Drain();
    {
      std::lock_guard<std::mutex> lock(detached_mu_);
      --detached_busy_;
      detached_count_.store(detached_pending_.size() + detached_busy_,
                            std::memory_order_release);
      if (detached_pending_.empty() && detached_busy_ == 0) {
        detached_cv_.notify_all();
      }
    }
  }
}

void RuleScheduler::WaitDetached() {
  // A detached rule's action may itself delete rules (which waits on this
  // queue); waiting for the queue to drain from the worker that is draining
  // it would self-deadlock.
  if (std::this_thread::get_id() == detached_worker_.get_id()) return;
  std::unique_lock<std::mutex> lock(detached_mu_);
  detached_cv_.wait(lock, [this] {
    return detached_pending_.empty() && detached_busy_ == 0;
  });
}

void RuleScheduler::WriteMetrics(obs::MetricSink& s) const {
  s.Gauge({{}, {}, "policy"}, static_cast<std::uint64_t>(policy()));
  s.Info("contingency", ContingencyPolicyToString(contingency()));
  s.Counter({"sentinel_rules_executed_total",
             "Rule firings that ran to completion.", "executed"},
            executed_count());
  s.Counter({"sentinel_rules_condition_rejections_total",
             "Firings whose condition did not hold.", "condition_rejections"},
            condition_rejections());
  s.Counter({"sentinel_rules_failed_total",
             "Contained rule failures (subtransaction rolled back).", "failed"},
            failed_count());
  s.Counter({"sentinel_rules_abort_top_total",
             "ABORT_TOP contingencies: rule failures that doomed the "
             "top-level transaction.",
             "abort_top"},
            abort_top_count());
  s.Gauge({"sentinel_scheduler_pending",
           "Prioritized firings awaiting execution.", "pending"},
          pending_count());
  s.Gauge({"sentinel_scheduler_detached_pending",
           "Detached firings queued or executing.", "detached_pending"},
          detached_pending_count());
  s.Gauge({"sentinel_scheduler_max_depth",
           "Deepest cascaded-rule nesting observed.", "max_depth"},
          static_cast<std::uint64_t>(max_depth_seen()));
  s.Counter({{}, {}, "inline_batches"}, inline_batches());
  s.Counter({{}, {}, "pooled_batches"}, pooled_batches());
  s.Histogram({{}, {}, "handoff_ns"}, handoff_ns().TakeSnapshot());
}

}  // namespace sentinel::rules
