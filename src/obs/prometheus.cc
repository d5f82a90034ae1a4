#include "obs/prometheus.h"

#include <cstdio>

namespace sentinel::obs {

std::string PromWriter::EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

/// Appends the sample line `name{k="v",...} value`.
void Sample(std::string* lines, std::string_view name,
            const MetricSink::Labels& labels, const std::string& value) {
  *lines += name;
  char separator = '{';
  for (const auto& [key, label] : labels) {
    *lines += separator + key + "=\"" + PromWriter::EscapeLabelValue(label);
    *lines += '"';
    separator = ',';
  }
  if (!labels.empty()) *lines += '}';
  *lines += " " + value + "\n";
}

}  // namespace

std::string* PromWriter::Lines(const Row& row, const char* type) {
  if (row.family.empty()) return nullptr;
  std::string name(row.family);
  auto [it, inserted] = index_.try_emplace(name, families_.size());
  if (!inserted) return &families_[it->second];
  std::string& lines = families_.emplace_back();
  lines += "# HELP " + name + " ";
  lines += row.help;
  lines += "\n# TYPE " + name + " " + type + "\n";
  return &lines;
}

void PromWriter::Scalar(const Row& row, const char* type,
                        const std::string& value) {
  if (std::string* lines = Lines(row, type)) {
    Sample(lines, row.family, row.labels, value);
  }
}

void PromWriter::Counter(const Row& row, std::uint64_t value) {
  Scalar(row, "counter", std::to_string(value));
}
void PromWriter::Gauge(const Row& row, std::uint64_t value) {
  Scalar(row, "gauge", std::to_string(value));
}
void PromWriter::GaugeF(const Row& row, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Scalar(row, "gauge", buf);
}
void PromWriter::Flag(const Row& row, bool value) { Gauge(row, value ? 1 : 0); }

void PromWriter::Histogram(const Row& row,
                           const LatencyHistogram::Snapshot& snap) {
  std::string* lines = Lines(row, "histogram");
  if (lines == nullptr) return;
  const std::string name(row.family);
  int last = LatencyHistogram::kBuckets - 1;
  while (last >= 0 && snap.buckets[last] == 0) --last;
  std::uint64_t cumulative = 0;
  Labels bucket_labels = row.labels;
  bucket_labels.emplace_back("le", "");
  for (int i = 0; i <= last; ++i) {
    cumulative += snap.buckets[i];
    // Inclusive upper bound of source bucket i (see class comment).
    const std::uint64_t bound =
        i >= 63 ? ~0ull : ((std::uint64_t{1} << i) - 1);
    bucket_labels.back().second = std::to_string(bound);
    Sample(lines, name + "_bucket", bucket_labels, std::to_string(cumulative));
  }
  bucket_labels.back().second = "+Inf";
  Sample(lines, name + "_bucket", bucket_labels, std::to_string(snap.count));
  Sample(lines, name + "_sum", row.labels, std::to_string(snap.sum_ns));
  Sample(lines, name + "_count", row.labels, std::to_string(snap.count));
}

std::string PromWriter::str() const {
  std::string out;
  for (const std::string& lines : families_) out += lines;
  return out;
}

std::string PromWriter::Take() {
  std::string out = str();
  families_.clear();
  index_.clear();
  return out;
}

}  // namespace sentinel::obs
