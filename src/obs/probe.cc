#include "obs/probe.h"

namespace sentinel::obs {

void Probe::Open(const Instruments& in, const Seam& seam,
                 std::optional<std::string> label) {
  t0_ = SpanTracer::NowNs();
  if (profiler_ != nullptr) cpu0_ = Profiler::ThreadCpuNs();
  if (label.has_value()) {
    span_.Start(in.spans, *seam.span, seam.txn, std::move(*label), seam.subtxn,
                seam.parent, t0_);
  }
}

std::uint64_t Probe::Close(bool completed) {
  timed_ = false;
  if (profiler_ != nullptr) cpu_ns_ = Profiler::ThreadCpuNs() - cpu0_;
  const std::uint64_t t1 = SpanTracer::NowNs();
  const std::uint64_t wall = t1 - t0_;
  span_.End(t1);
  if (!completed) return wall;
  if (histogram_ != nullptr) histogram_->Record(wall);
  if (profiler_ != nullptr) {
    if (cost_ != nullptr) cost_->Record(cpu_ns_, wall);
    if (site_ != nullptr) Profiler::RecordSiteWait(site_, wall);
  }
  return wall;
}

FiringProbe::FiringProbe(const Instruments& in, const FiringSeam& seam)
    : metrics_(seam.metrics) {
  if (in.profiler != nullptr && in.profiler->enabled()) {
    profiler_ = in.profiler;
    cpu_last_ = Profiler::ThreadCpuNs();
  }
  last_ = SpanTracer::NowNs();
  if (in.spans != nullptr && in.spans->enabled_for(SpanKind::kSubTxn)) {
    span_.Start(in.spans, seam.txn, seam.subtxn, seam.rule, seam.parent,
                last_);
  }
}

void FiringProbe::Enter(FiringPhase phase) {
  if (ended_) return;
  if (phase_ != FiringPhase::kNone) Close(false, SpanTracer::NowNs());
  phase_ = phase;
  if (phase == FiringPhase::kCondition) {
    span_.OpenChild(SpanKind::kCondition, last_);
  } else if (phase == FiringPhase::kAction) {
    span_.OpenChild(SpanKind::kAction, last_);
  }
}

std::uint64_t FiringProbe::Mark() {
  if (phase_ == FiringPhase::kNone) return 0;
  return Close(true, SpanTracer::NowNs());
}

void FiringProbe::End() {
  if (ended_) return;
  ended_ = true;
  if (!span_.active()) return;  // nothing left to record
  if (phase_ != FiringPhase::kNone) Close(false, SpanTracer::NowNs());
  span_.End(last_);
}

std::uint64_t FiringProbe::Close(bool completed, std::uint64_t t) {
  const FiringPhase phase = phase_;
  phase_ = FiringPhase::kNone;
  if (profiler_ != nullptr) {
    const std::uint64_t cpu = Profiler::ThreadCpuNs();
    cpu_ns_ = cpu - cpu_last_;
    cpu_last_ = cpu;
  }
  const std::uint64_t wall = t - last_;
  last_ = t;
  span_.CloseChild(t);
  if (!completed || metrics_ == nullptr) return wall;
  LatencyHistogram* histogram = nullptr;
  int seam = -1;
  switch (phase) {
    case FiringPhase::kCondition:
      histogram = &metrics_->condition_ns;
      seam = static_cast<int>(Profiler::RuleSeam::kCondition);
      break;
    case FiringPhase::kAction:
      histogram = &metrics_->action_ns;
      seam = static_cast<int>(Profiler::RuleSeam::kAction);
      break;
    case FiringPhase::kCommit:
      histogram = &metrics_->commit_ns;
      seam = static_cast<int>(Profiler::RuleSeam::kCommit);
      break;
    case FiringPhase::kAbort:
      histogram = &metrics_->abort_ns;
      break;
    case FiringPhase::kNone:
      return wall;
  }
  histogram->Record(wall);
  if (profiler_ != nullptr && cost_ != nullptr && seam >= 0) {
    cost_->seams[seam].Record(cpu_ns_, wall);
  }
  return wall;
}

}  // namespace sentinel::obs
