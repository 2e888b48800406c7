// EdgeSlice benchmark runner.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--corrupt-pins]
//
// Runs one workload (city_actor, city_taro_pool, train_ddpg,
// serve_poisson), checks its outputs, and prints provenance, a metric
// table and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// and a traced leg and reports the per-layer metrics the workload
// produces (run.py reports the others as 0). The GEMM backend is the one
// EDGESLICE_GEMM selects (AVX2 when the CPU has it, if unset), pinned
// explicitly. The exit code is 0 only when every correctness check passed.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/metrics.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--corrupt-pins]\n",
               message);
  std::exit(2);
}

double parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) {
    usage((std::string("bad value for ") + flag + ": " + text).c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-pins") {
      options.corrupt_pins = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const double seed = parse_number("--seed", value);
      if (seed < 0 || seed != std::floor(seed)) usage("--seed must be a whole number");
      options.seed = static_cast<std::uint64_t>(seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = parse_number("--seconds", value);
      if (options.seconds <= 0) usage("--seconds must be positive");
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string trace = value;
      if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
      options.trace = trace == "1";
      have_trace = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "city_actor") run = run_city_actor;
  if (options.workload == "city_taro_pool") run = run_city_taro_pool;
  if (options.workload == "train_ddpg") run = run_train_ddpg;
  if (options.workload == "serve_poisson") run = run_serve_poisson;
  if (run == nullptr) usage(("unknown workload " + options.workload).c_str());

  // Run the workload in a child process: getrusage's ru_maxrss keeps the
  // peak of whatever process exec'd this binary (the Python launcher),
  // while a forked child's starts from this small process's own.
  std::fflush(nullptr);
  const pid_t child = ::fork();
  if (child < 0) {
    std::perror("perfbench: fork");
    return 1;
  }
  if (child > 0) {
    int status = 0;
    while (::waitpid(child, &status, 0) < 0) {
      if (errno != EINTR) return 1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  }

  pin_calling_thread(placement().main);
  Result result;
  try {
    const char* backend = pin_gemm_backend();
    edgeslice::set_metrics_enabled(false);
    print_provenance(options, backend);
    result = run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    std::fflush(nullptr);
    ::_exit(1);
  }
  result.check(result.attempted >= 1, "no operation attempted");
  for (const Metric& m : result.metrics) {
    result.check(std::isfinite(m.value), "non-finite metric " + m.name);
  }
  print_result(result);
  std::fflush(nullptr);
  ::_exit(result.correct() ? 0 : 1);
}
