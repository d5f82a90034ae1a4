// End-to-end ECA pipeline benchmark driver.
//
//   e2e_driver --workload inventory_mem|inventory_durable|ged_loopback
//              --seed N --seconds S --trace 0|1 [--dir D]
//              [--spans-out FILE] [--expect-offset N]
//
// Prints one JSON object on its last stdout line: every metric it measured
// (end-to-end ones from the untraced phase; per-layer ones, with --trace 1,
// from a traced phase that follows it), run facts and the output checks.
// Exit code 0 means the run completed and every output check passed.
//
// The process pins itself to one CPU before any thread starts. On virtual
// machines every cross-CPU wake-up waits on the hypervisor, which swamps the
// program's own cost and made run-to-run spreads several times wider.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W --seed N --seconds S --trace 0|1 "
               "[--dir D] [--spans-out FILE] [--expect-offset N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      config.dir = value;
    } else if (flag == "--spans-out") {
      config.spans_out = value;
    } else if (flag == "--expect-offset") {
      config.expect_offset = std::atoi(value);
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.seconds <= 0) return Usage(argv[0]);
  // Pin before any thread exists, so every library thread inherits it: the
  // first CPU this process may use.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 1;
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(cpu, &pinned);
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return 1;

  e2e::Report report;
  int rc = 0;
  if (config.workload == "inventory_mem") {
    rc = e2e::RunInventory(config, /*durable=*/false, &report);
  } else if (config.workload == "inventory_durable") {
    rc = e2e::RunInventory(config, /*durable=*/true, &report);
  } else if (config.workload == "ged_loopback") {
    rc = e2e::RunGedLoopback(config, &report);
  } else {
    return Usage(argv[0]);
  }
  if (rc != 0) return rc;
  report.Info("workload", config.workload);
  report.Info("seed", static_cast<double>(config.seed));
  report.Info("seconds", config.seconds);
  report.Info("trace", config.trace ? 1.0 : 0.0);
  report.Info("nproc", std::thread::hardware_concurrency());
  report.Info("cpus_used", 1);
  report.Info("build_type", E2E_BUILD_TYPE);
  report.Info("compiler", E2E_COMPILER);
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 3;
}
