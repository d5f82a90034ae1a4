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

}  // namespace sentinel::obs
