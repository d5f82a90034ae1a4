#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench.h"

namespace e2e {

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Unit();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

void Samples::Add(std::uint64_t ns) {
  ++seen_;
  sorted_ = false;
  if (kept_ < kCapacity) {
    ns_[kept_++] = ns;
    return;
  }
  const std::uint64_t slot = rng_.Uniform(seen_);  // Algorithm R
  if (slot < kCapacity) ns_[slot] = ns;
}

namespace {
std::size_t Rank(std::size_t n, double q) {
  // Nearest rank: the smallest sample with at least q*n samples at or below.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

/// A JSON string literal; control characters are dropped.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}
}  // namespace

double Samples::QuantileUs(double q) {
  if (kept_ == 0) return 0;
  if (!sorted_) {
    std::sort(ns_.begin(), ns_.begin() + kept_);
    sorted_ = true;
  }
  return static_cast<double>(ns_[Rank(kept_, q)]) / 1000.0;
}

std::size_t Samples::Beyond(double q) const {
  if (kept_ == 0) return 0;
  return kept_ - 1 - Rank(kept_, q);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t Work(std::uint64_t seed, int rounds) {
  std::uint64_t x = seed | 1;
  for (int i = 0; i < rounds; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
  }
  return x;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = Quote(value);
}

void Report::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  info_[key] = buf;
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) ++checks_failed_;
  std::string entry = (ok ? "ok   " : "FAIL ") + name;
  if (!detail.empty()) entry += ": " + detail;
  checks_.push_back(entry);
}

double Report::Windows(std::vector<Window>* windows) {
  struct Series {
    const char* name;
    Samples Window::*samples;
  };
  const Series series[] = {{"op", &Window::ops},
                           {"call", &Window::calls},
                           {"commit", &Window::commits}};
  const std::pair<const char*, double> quantiles[] = {
      {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
  std::vector<double> tput;
  std::string per_window;
  for (const Window& w : *windows) {
    tput.push_back(w.seconds > 0 ? static_cast<double>(w.done) / w.seconds : 0);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", per_window.empty() ? "" : " ",
                  tput.back());
    per_window += buf;
  }
  const double throughput = Median(tput);
  Metric("throughput_ops_s", throughput, "1/s");
  Info("throughput_per_window", per_window);
  for (const Series& s : series) {
    std::size_t total = 0, min_beyond = SIZE_MAX;
    for (const auto& [label, q] : quantiles) {
      std::vector<double> per_window;
      for (Window& w : *windows) {
        Samples& samples = w.*s.samples;
        per_window.push_back(samples.QuantileUs(q));
        if (q == 0.99) {
          total += samples.count();
          min_beyond = std::min(min_beyond, samples.Beyond(q));
        }
      }
      Metric(std::string(s.name) + "_" + label + "_us", Median(per_window),
             "us");
    }
    Info(std::string(s.name) + "_samples", static_cast<double>(total));
    // Every window's p99 rests on at least this many samples beyond it.
    Info(std::string(s.name) + "_p99_min_beyond_per_window",
         static_cast<double>(min_beyond));
  }
  Info("windows", static_cast<double>(windows->size()));
  return throughput;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, v] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(v.value) ? v.value : 0.0);
    out += (first ? "" : ", ") + Quote(name) + ": {\"value\": " + buf +
           ", \"unit\": " + Quote(v.unit) + "}";
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    out += (first ? "" : ", ") + Quote(key) + ": " + value;
    first = false;
  }
  out += "}, \"checks\": [";
  first = true;
  for (const auto& c : checks_) {
    out += (first ? "" : ", ") + Quote(c);
    first = false;
  }
  return out + "]}";
}

}  // namespace e2e
