#ifndef SENTINEL_OBS_METRIC_SINK_H_
#define SENTINEL_OBS_METRIC_SINK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace sentinel::obs {

/// The one walk over a component's counters. Each owner writes its rows
/// once, in `WriteMetrics(MetricSink&) const`, and both exporters render
/// them: PromWriter as the /metrics exposition, JsonSink as the /stats
/// document.
///
/// A row carries both renderings: its Prometheus family, help and labels,
/// and its /stats JSON key. An empty `family` makes the row /stats-only; an
/// empty `key` makes it /metrics-only. Open/OpenList/OpenItem/Close give the
/// JSON nesting and Info the string facts only /stats shows; they default
/// to no-ops, which is what Prometheus wants (its labels ride on the rows).
class MetricSink {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;
  struct Row {
    std::string_view family;
    std::string_view help;
    std::string_view key;
    Labels labels = {};
  };

  /// `"key": {` / `"key": [` / a `{` inside a list; Close ends the latest.
  virtual void Open(std::string_view /*key*/) {}
  virtual void OpenList(std::string_view /*key*/) {}
  virtual void OpenItem() {}
  virtual void Close() {}
  virtual void Info(std::string_view /*key*/, std::string_view /*value*/) {}

  virtual void Counter(const Row& row, std::uint64_t value) = 0;
  virtual void Gauge(const Row& row, std::uint64_t value) = 0;
  virtual void GaugeF(const Row& row, double value) = 0;
  /// A gauge that is 0/1 in Prometheus and a bool in JSON.
  virtual void Flag(const Row& row, bool value) = 0;
  virtual void Histogram(const Row& row,
                         const LatencyHistogram::Snapshot& snap) = 0;

 protected:
  ~MetricSink() = default;  // not owned through a base pointer
};

/// Renders rows as one JSON object (the /stats document and the
/// per-component StatsJson bodies).
class JsonSink final : public MetricSink {
 public:
  JsonSink() { w_.BeginObject(); }

  void Open(std::string_view key) override {
    w_.Key(key).BeginObject();
    closers_ += '}';
  }
  void OpenList(std::string_view key) override {
    w_.Key(key).BeginArray();
    closers_ += ']';
  }
  void OpenItem() override {
    w_.BeginObject();
    closers_ += '}';
  }
  void Close() override {
    if (closers_.empty()) return;
    closers_.back() == '}' ? w_.EndObject() : w_.EndArray();
    closers_.pop_back();
  }
  void Info(std::string_view key, std::string_view value) override {
    w_.Field(key, value);
  }

  void Counter(const Row& row, std::uint64_t v) override { Field(row, v); }
  void Gauge(const Row& row, std::uint64_t v) override { Field(row, v); }
  void GaugeF(const Row& row, double v) override { Field(row, v); }
  void Flag(const Row& row, bool v) override { Field(row, v); }
  void Histogram(const Row& row,
                 const LatencyHistogram::Snapshot& snap) override {
    if (!row.key.empty()) w_.Key(row.key).Raw(HistogramJson(snap));
  }

  /// Closes every open scope and returns the document (call once).
  std::string Take() {
    while (!closers_.empty()) Close();
    w_.EndObject();
    return w_.Take();
  }

 private:
  template <typename T>
  void Field(const Row& row, T value) {
    if (!row.key.empty()) w_.Field(row.key, value);
  }

  JsonWriter w_;
  std::string closers_;  // '}' or ']' per open scope, innermost last
};

/// Renders `owner.WriteMetrics` as a stand-alone JSON object.
template <typename Owner>
std::string MetricsJson(const Owner& owner) {
  JsonSink sink;
  owner.WriteMetrics(sink);
  return sink.Take();
}

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_METRIC_SINK_H_
