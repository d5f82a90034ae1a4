// One probe per pipeline seam: the span tree, the latency histograms and the
// profiler's cost accounts all receive the same measured interval, so
// "where did the time go?" has one answer whichever recorder is asked.
// Suite names start with Obs* so the TSan CI job's --gtest_filter picks
// them up.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/active_database.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "rules/rule.h"
#include "rules/rule_manager.h"

namespace sentinel {
namespace {

using core::ActiveDatabase;
using detector::EventModifier;
using obs::Profiler;
using obs::Span;
using obs::SpanKind;

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
};

/// Count and summed duration of the spans of `kind` labelled `label`.
SpanTotals SumSpans(const std::vector<Span>& spans, SpanKind kind,
                    const std::string& label) {
  SpanTotals totals;
  for (const Span& span : spans) {
    if (span.kind != kind || span.label != label) continue;
    ++totals.count;
    totals.sum_ns += span.end_ns - span.start_ns;
  }
  return totals;
}

// A file-backed database, fully traced and profiled, fires one composite
// rule N times. Per seam: as many spans as histogram samples, and span
// durations, histogram sum and profiler wall total are one number.
TEST(ObsProbeTest, SpansHistogramsAndProfilerShareOneInterval) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sentinel_probe_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    ActiveDatabase db;
    ASSERT_TRUE(db.Open(dir + "/db").ok());
    db.span_tracer()->set_mode(obs::TraceMode::kFull);
    db.profiler()->Start();

    auto submit = db.DeclareEvent("ev_submit", "Order", EventModifier::kEnd,
                                  "void submit()");
    auto confirm = db.DeclareEvent("ev_confirm", "Order",
                                   EventModifier::kEnd, "void confirm()");
    ASSERT_TRUE(submit.ok());
    ASSERT_TRUE(confirm.ok());
    ASSERT_TRUE(db.detector()->DefineSeq("ev_seq", *submit, *confirm).ok());
    ASSERT_TRUE(db.rule_manager()
                    ->DefineRule(
                        "seq_rule", "ev_seq",
                        [](const rules::RuleContext&) { return true; },
                        [](const rules::RuleContext&) {})
                    .ok());

    constexpr int kFirings = 20;
    for (int i = 0; i < kFirings; ++i) {
      auto txn = db.Begin();
      ASSERT_TRUE(txn.ok());
      db.NotifyMethod("Order", 1, EventModifier::kEnd, "void submit()",
                      nullptr, *txn);
      db.NotifyMethod("Order", 1, EventModifier::kEnd, "void confirm()",
                      nullptr, *txn);
      ASSERT_TRUE(db.Commit(*txn).ok());
    }
    db.profiler()->Stop();

    auto rule = db.rule_manager()->Find("seq_rule");
    ASSERT_TRUE(rule.ok());
    EXPECT_EQ((*rule)->fired_count(), static_cast<std::uint64_t>(kFirings));
    const auto rules = db.profiler()->RuleSnapshots();
    const auto it = std::find_if(rules.begin(), rules.end(), [](const auto& r) {
      return r.name == "seq_rule";
    });
    ASSERT_NE(it, rules.end());
    const std::vector<Span> spans = db.span_tracer()->Snapshot();
    EXPECT_EQ(db.span_tracer()->dropped(), 0u);

    struct SeamCase {
      const char* name;
      const obs::LatencyHistogram* histogram;
      Profiler::RuleSeam seam;
      SpanKind kind;
      bool has_span;  // commit is covered by the subtxn span, not its own
    };
    const SeamCase cases[] = {
        {"condition", &(*rule)->metrics().condition_ns,
         Profiler::RuleSeam::kCondition, SpanKind::kCondition, true},
        {"action", &(*rule)->metrics().action_ns, Profiler::RuleSeam::kAction,
         SpanKind::kAction, true},
        {"commit", &(*rule)->metrics().commit_ns, Profiler::RuleSeam::kCommit,
         SpanKind::kSubTxn, false},
    };
    for (const SeamCase& c : cases) {
      SCOPED_TRACE(c.name);
      const auto hist = c.histogram->TakeSnapshot();
      const Profiler::CostSnapshot& cost =
          it->seams[static_cast<int>(c.seam)];
      EXPECT_EQ(hist.count, static_cast<std::uint64_t>(kFirings));
      EXPECT_EQ(cost.invocations, hist.count);
      EXPECT_EQ(cost.wall_ns, hist.sum_ns);
      if (!c.has_span) continue;
      const SpanTotals span =
          SumSpans(spans, c.kind, std::string("seq_rule.") + c.name);
      EXPECT_EQ(span.count, hist.count);
      EXPECT_EQ(span.sum_ns, hist.sum_ns);
      EXPECT_EQ(span.sum_ns, cost.wall_ns);
    }

    // Operator-node evaluation: composite_detect spans vs the node account.
    const auto nodes = db.profiler()->NodeSnapshots();
    ASSERT_FALSE(nodes.empty());
    bool saw_seq = false;
    for (const auto& node : nodes) {
      SCOPED_TRACE(node.name);
      saw_seq |= node.name == "ev_seq";
      const SpanTotals span =
          SumSpans(spans, SpanKind::kCompositeDetect, node.name);
      EXPECT_EQ(span.count, node.eval.invocations);
      EXPECT_EQ(span.sum_ns, node.eval.wall_ns);
    }
    EXPECT_TRUE(saw_seq);
    ASSERT_TRUE(db.Close().ok());
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// The spans one firing of rule `rule` left: its subtxn span and its
/// condition and action children (by label), with how many of each.
struct FiringSpans {
  int subtxns = 0;
  int conditions = 0;
  int actions = 0;
  Span subtxn;
  Span condition;
  Span action;
};

FiringSpans FindFiring(const std::vector<Span>& spans,
                       const std::string& rule) {
  FiringSpans found;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kSubTxn && span.label == rule) {
      ++found.subtxns;
      found.subtxn = span;
    } else if (span.kind == SpanKind::kCondition &&
               span.label == rule + ".condition") {
      ++found.conditions;
      found.condition = span;
    } else if (span.kind == SpanKind::kAction &&
               span.label == rule + ".action") {
      ++found.actions;
      found.action = span;
    }
  }
  return found;
}

/// Defines `ev` (Order::ship) and an immediate rule on it.
void InstallRule(ActiveDatabase* db, const std::string& rule,
                 rules::ConditionFn condition) {
  ASSERT_TRUE(db->DeclareEvent("ev", "Order", EventModifier::kEnd,
                               "void ship()")
                  .ok());
  ASSERT_TRUE(db->rule_manager()
                  ->DefineRule(rule, "ev", std::move(condition),
                               [](const rules::RuleContext&) {})
                  .ok());
}

void Ship(ActiveDatabase* db, storage::TxnId txn) {
  db->NotifyMethod("Order", 1, EventModifier::kEnd, "void ship()", nullptr,
                   txn);
}

// In the default flight mode one firing is one flight-recorder entry that
// reads back as exactly the subtxn, condition and action spans the same
// firing leaves in kFull: same kinds, labels and parent links, adjacent
// phases sharing their boundary timestamp. Labels survive the rule.
TEST(ObsProbeTest, FlightModeFiringReadsBackAsItsThreeSpans) {
  const auto always = [](const rules::RuleContext&) { return true; };
  // kFull reference: the subtxn parents under the notify span, which
  // parents under the transaction.
  FiringSpans full;
  {
    ActiveDatabase db;
    ASSERT_TRUE(db.OpenInMemory().ok());
    db.span_tracer()->set_mode(obs::TraceMode::kFull);
    InstallRule(&db, "ship_rule", always);
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    Ship(&db, *txn);
    const std::vector<Span> spans = db.span_tracer()->Snapshot();
    full = FindFiring(spans, "ship_rule");
    ASSERT_EQ(full.subtxns, 1);
    std::map<std::uint64_t, Span> by_id;
    for (const Span& span : spans) by_id[span.id] = span;
    ASSERT_TRUE(by_id.count(full.subtxn.parent));
    const Span& notify = by_id[full.subtxn.parent];
    EXPECT_EQ(notify.kind, SpanKind::kNotify);
    ASSERT_EQ(db.span_tracer()->OpenTxnSpans().size(), 1u);
    EXPECT_EQ(notify.parent, db.span_tracer()->OpenTxnSpans()[0].id);
    ASSERT_TRUE(db.Commit(*txn).ok());
    ASSERT_TRUE(db.Close().ok());
  }

  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  ASSERT_EQ(db.span_tracer()->mode(), obs::TraceMode::kFlightOnly);
  InstallRule(&db, "ship_rule", always);
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  const std::uint64_t flight_before = db.flight_recorder()->recorded();
  const std::uint64_t tracer_before = db.span_tracer()->recorded();
  Ship(&db, *txn);
  EXPECT_EQ(db.flight_recorder()->recorded(), flight_before + 3);
  EXPECT_EQ(db.span_tracer()->recorded(), tracer_before + 3);
  ASSERT_EQ(db.span_tracer()->OpenTxnSpans().size(), 1u);
  const std::uint64_t txn_span = db.span_tracer()->OpenTxnSpans()[0].id;
  // Read back after the rule is gone: the labels come from its interned
  // name, not from the rule object.
  ASSERT_TRUE(db.rule_manager()->DeleteRule("ship_rule").ok());
  const FiringSpans flight =
      FindFiring(db.flight_recorder()->Snapshot(), "ship_rule");

  ASSERT_EQ(flight.subtxns, 1);
  ASSERT_EQ(flight.conditions, 1);
  ASSERT_EQ(flight.actions, 1);
  EXPECT_EQ(full.conditions, 1);
  EXPECT_EQ(full.actions, 1);
  // Flight mode records no notify span: the subtxn parents straight under
  // the transaction the kFull notify span hangs off.
  EXPECT_EQ(flight.subtxn.parent, txn_span);
  for (const FiringSpans* f : {&std::as_const(full), &flight}) {
    EXPECT_EQ(f->condition.parent, f->subtxn.id);
    EXPECT_EQ(f->action.parent, f->subtxn.id);
    EXPECT_EQ(f->subtxn.txn, f->condition.txn);
    EXPECT_EQ(f->subtxn.subtxn, f->action.subtxn);
    EXPECT_NE(f->subtxn.subtxn, 0u);
    EXPECT_EQ(f->subtxn.tid, f->action.tid);
    EXPECT_EQ(f->condition.start_ns, f->subtxn.start_ns);
    EXPECT_EQ(f->action.start_ns, f->condition.end_ns);
    EXPECT_LE(f->action.end_ns, f->subtxn.end_ns);
  }
  EXPECT_EQ(flight.subtxn.txn, *txn);
  ASSERT_TRUE(db.Commit(*txn).ok());
  ASSERT_TRUE(db.Close().ok());
}

// A condition that throws leaves a closed condition span (the failed
// attempt) but no condition or action histogram sample: a probe phase
// cut short takes only completed intervals. The aborted subtransaction is
// timed as the abort phase.
TEST(ObsProbeTest, ThrowingConditionClosesItsSpanWithoutASample) {
  ActiveDatabase db;
  ASSERT_TRUE(db.OpenInMemory().ok());
  InstallRule(&db, "throwing_rule", [](const rules::RuleContext&) -> bool {
    throw std::runtime_error("condition failed");
  });
  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  const std::uint64_t before = db.flight_recorder()->recorded();
  Ship(&db, *txn);
  EXPECT_EQ(db.scheduler()->failed_count(), 1u);
  EXPECT_EQ(db.flight_recorder()->recorded(), before + 2);

  const FiringSpans f =
      FindFiring(db.flight_recorder()->Snapshot(), "throwing_rule");
  ASSERT_EQ(f.subtxns, 1);
  ASSERT_EQ(f.conditions, 1);
  EXPECT_EQ(f.actions, 0);
  EXPECT_EQ(f.condition.parent, f.subtxn.id);
  EXPECT_GT(f.condition.end_ns, 0u);
  EXPECT_GE(f.condition.end_ns, f.condition.start_ns);
  EXPECT_LE(f.condition.end_ns, f.subtxn.end_ns);

  auto rule = db.rule_manager()->Find("throwing_rule");
  ASSERT_TRUE(rule.ok());
  const obs::RuleMetrics& m = (*rule)->metrics();
  EXPECT_EQ(m.condition_ns.TakeSnapshot().count, 0u);
  EXPECT_EQ(m.action_ns.TakeSnapshot().count, 0u);
  EXPECT_EQ(m.commit_ns.TakeSnapshot().count, 0u);
  EXPECT_EQ(m.abort_ns.TakeSnapshot().count, 1u);
  EXPECT_EQ(m.lock_wait_ns.TakeSnapshot().count, 1u);
  ASSERT_TRUE(db.Commit(*txn).ok());
  ASSERT_TRUE(db.Close().ok());
}

}  // namespace
}  // namespace sentinel
