#ifndef SENTINEL_OBS_PROMETHEUS_H_
#define SENTINEL_OBS_PROMETHEUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metric_sink.h"

namespace sentinel::obs {

/// MetricSink that renders the Prometheus text exposition format (version
/// 0.0.4): `# HELP` / `# TYPE` headers followed by `name{labels} value`
/// sample lines. Samples are buffered per family, so each family's HELP,
/// TYPE and samples come out as one contiguous group, in first-declared
/// order, however the caller interleaves its rows. Label values are escaped
/// per the exposition spec (backslash, double quote, newline). Rows with an
/// empty family (/stats-only) are skipped.
///
/// Histograms map the power-of-two LatencyHistogram buckets onto cumulative
/// `_bucket{le="..."}` lines: bucket i of the source covers
/// [2^(i-1), 2^i) ns, so its inclusive upper bound — the `le` label — is
/// 2^i - 1 (bucket 0 holds exactly 0 ns). Trailing empty buckets are elided
/// (the `le="+Inf"` line always closes the family), which keeps the series
/// cumulative and monotone while dropping dozens of all-zero lines per
/// histogram. Values are nanoseconds; families carry the `_ns` suffix to
/// make the unit explicit.
class PromWriter final : public MetricSink {
 public:
  void Counter(const Row& row, std::uint64_t value) override;
  void Gauge(const Row& row, std::uint64_t value) override;
  void GaugeF(const Row& row, double value) override;
  void Flag(const Row& row, bool value) override;
  void Histogram(const Row& row,
                 const LatencyHistogram::Snapshot& snap) override;

  /// One-sample shorthands for a row with no JSON key.
  void Counter(std::string_view name, std::string_view help,
               const Labels& labels, std::uint64_t value) {
    Counter(Row{name, help, {}, labels}, value);
  }
  void Gauge(std::string_view name, std::string_view help,
             const Labels& labels, std::uint64_t value) {
    Gauge(Row{name, help, {}, labels}, value);
  }
  void Histogram(std::string_view name, std::string_view help,
                 const Labels& labels,
                 const LatencyHistogram::Snapshot& snap) {
    Histogram(Row{name, help, {}, labels}, snap);
  }

  static std::string EscapeLabelValue(const std::string& value);

  /// The exposition so far, one group per family.
  std::string str() const;
  std::string Take();

 private:
  /// The text of `row.family` (HELP and TYPE written on first use), or
  /// nullptr for a /stats-only row.
  std::string* Lines(const Row& row, const char* type);
  void Scalar(const Row& row, const char* type, const std::string& value);

  std::vector<std::string> families_;  // in first-declared order
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_PROMETHEUS_H_
