// Shared plumbing of the benchmark runner: options, timing, statistics,
// digests, provenance and the one-line JSON result.
//
// Every workload returns a Result: a correctness verdict (a list of failed
// checks), the attempted/failed operation counts and named metrics. main()
// prints the provenance block, the metric table and, last, the JSON line
// the benchmark contract reads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: flip one bit of every pinned digest, so a correct
  /// program must fail its correctness gate.
  bool corrupt_pins = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // failed correctness checks

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  bool correct() const { return failures.empty(); }
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// setup_s: the fastest of a run's set-up samples, all of the same set-up
/// and spread over the run; 0 for none. The host's speed moves in spells:
/// the same city build took 12.5 ms in one and 18-19 ms in the next, which
/// lasted 16 s, and whole runs fell in slow spells. A mean or median of
/// samples follows the spells a run happens to hit. The fastest sample is
/// the set-up's cost in the run's fastest moment; short fast moments come
/// even within slow spells, and enough samples catch one.
double fastest(const std::vector<double>& values);
/// The median over consecutive `window` seconds of each window's p99, where
/// sample i falls at `at[i]` seconds: the typical tail of a run, which one
/// slow spell of a shared machine does not decide on its own.
double windowed_p99(const std::vector<double>& values, const std::vector<double>& at,
                    double window);

/// Peak resident set of this process (getrusage ru_maxrss), in MiB.
double peak_rss_mb();

/// FNV-1a over raw bytes, chained through `hash`.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash = kFnvBasis);
std::uint64_t fnv1a(const std::vector<double>& values, std::uint64_t hash = kFnvBasis);
std::string hex(std::uint64_t digest);

/// A pinned digest as the gate compares it (bit-flipped under
/// --corrupt-pins).
std::uint64_t pinned(const Options& options, std::uint64_t digest);

/// Totals of the program's own tracer over every recorded path whose last
/// component is `name` (a span nests under whatever span was open).
struct SpanSum {
  std::size_t count = 0;
  double seconds = 0.0;
};
SpanSum span_sum(const std::string& name);
/// Per-period totals of those paths, one entry per retained period.
std::vector<double> span_period_totals(const std::string& name);

/// Two fixed CPUs of the process's affinity mask (its last two), or -1s
/// when fewer than two are allowed. The workload's main thread runs on `main`; a
/// workload's second thread (pool worker, serving thread) is started from
/// `helper` and inherits it. Fixed placement keeps run-to-run thread
/// migration out of the timings.
struct Placement {
  int main = -1;
  int helper = -1;
};
const Placement& placement();
void pin_calling_thread(int cpu);  // no-op for -1

/// Run `spawn` with the calling thread on the helper CPU, so threads it
/// starts inherit that CPU, then move the caller back to the main CPU.
template <typename F>
void spawn_on_helper(F&& spawn) {
  pin_calling_thread(placement().helper);
  spawn();
  pin_calling_thread(placement().main);
}

/// Keeps the placement's CPUs from idling while a multi-threaded workload
/// runs: one SCHED_IDLE thread per CPU spins with a pause hint, yielding to
/// any normal thread at once. A workload thread that blocks (pool barrier,
/// serving poll) then wakes on a running virtual CPU instead of a halted
/// one, whose wake-up latency varies with the host's load from run to run.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

/// Pin the GEMM backend EDGESLICE_GEMM selects explicitly (unset: AVX2
/// when the CPU has it, scalar otherwise) and return its name; pinned
/// digests are kept per backend.
const char* pin_gemm_backend();

/// Provenance block: GEMM backend, nproc, seed, NDEBUG, optimisation.
void print_provenance(const Options& options, const char* gemm_backend);

/// Human-readable metric table plus the final JSON line.
void print_result(const Result& result);

}  // namespace perfbench
