// Shared pieces of the end-to-end benchmark driver: configuration, seeded
// input generation, latency samples and the result report.
#ifndef E2EBENCH_DRIVER_BENCH_H_
#define E2EBENCH_DRIVER_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// One steady-clock read, in ns.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for database files (created and removed by the caller).
  std::string dir = ".";
  /// Self-test hook: added to one closed-form expectation, so a correct
  /// program must fail the output check.
  int expect_offset = 0;
  /// Chrome-trace file receiving the span trees of the first traced ops
  /// ("" = none).
  std::string spans_out;
};

/// Complete set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t Uniform(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Per-op latency samples (ns). Up to kCapacity samples are kept, so
/// percentiles are exact order statistics; past that, a uniform reservoir
/// of kCapacity samples stands for all of them. The buffer is allocated and
/// touched up front, so the driver's own memory does not grow with the
/// program's speed and peak_rss_mb measures the library.
class Samples {
 public:
  static constexpr std::size_t kCapacity = 1 << 16;
  Samples() : ns_(kCapacity) {}
  void Add(std::uint64_t ns);
  /// Samples offered, kept or not.
  std::uint64_t count() const { return seen_; }
  /// Nearest-rank quantile in µs (0 when empty).
  double QuantileUs(double q);
  /// Kept samples strictly above the nearest-rank quantile.
  std::size_t Beyond(double q) const;

 private:
  std::vector<std::uint64_t> ns_;
  std::size_t kept_ = 0;
  std::uint64_t seen_ = 0;
  bool sorted_ = false;
  Rng rng_{0x5a3d1e};
};

/// The per-op samples of one measurement window. A timed phase is cut into
/// equal windows and each end-to-end metric is reported as its median over
/// the windows, so a burst of interference on the host moves a few windows
/// and not the reported value.
struct Window {
  Samples ops, calls, commits;
  std::uint64_t done = 0;  // ops completed in the window
  double seconds = 0;      // measured time those ops took
  std::uint64_t first_ns = 0, last_ns = 0;  // first op's start, last's end
};

/// Windows per timed phase.
constexpr int kWindows = 10;

/// Median of a small list (setup times).
double Median(std::vector<double> values);

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Peak resident set of this process, MB.
double PeakRssMb();

/// The driver's result: metrics by name, plus run facts and check outcomes.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  /// Records a named output check; any failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return checks_failed_ == 0; }
  /// Reports throughput_ops_s and the op/call/commit p50/p90/p99 as medians
  /// over `windows`, with the sample counts behind them. Returns the median
  /// throughput.
  double Windows(std::vector<Window>* windows);
  std::string Json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> checks_;
  int checks_failed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Fixed CPU work owned by the benchmark (conditions, actions): `rounds` of
/// a dependent multiply-xor chain. Returns the chain value so the work
/// cannot be elided.
std::uint64_t Work(std::uint64_t seed, int rounds);

int RunInventory(const Config& config, bool durable, Report* report);
int RunGedLoopback(const Config& config, Report* report);

}  // namespace e2e

#endif  // E2EBENCH_DRIVER_BENCH_H_
