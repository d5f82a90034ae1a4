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
#include <string>
#include <vector>

#include "core/active_database.h"
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

}  // namespace
}  // namespace sentinel
