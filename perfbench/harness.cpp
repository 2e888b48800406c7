#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/trace_span.h"
#include "nn/gemm.h"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double windowed_p99(const std::vector<double>& values, const std::vector<double>& at,
                    double window) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto w = static_cast<std::size_t>(at[i] / window);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> p99s;
  for (auto& samples : windows) {
    if (!samples.empty()) p99s.push_back(quantile(std::move(samples), 0.99));
  }
  return median(std::move(p99s));
}

double peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t fnv1a(const std::vector<double>& values, std::uint64_t hash) {
  return fnv1a(values.data(), values.size() * sizeof(double), hash);
}

std::string hex(std::uint64_t digest) {
  char buffer[2 + 16 + 1];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

namespace {

bool path_ends_with(const std::string& path, const std::string& name) {
  if (path == name) return true;
  return path.size() > name.size() &&
         path.compare(path.size() - name.size(), name.size(), name) == 0 &&
         path[path.size() - name.size() - 1] == '/';
}

}  // namespace

SpanSum span_sum(const std::string& name) {
  SpanSum sum;
  const edgeslice::Tracer& tracer = edgeslice::global_tracer();
  for (const std::string& path : tracer.names()) {
    if (!path_ends_with(path, name)) continue;
    const edgeslice::SpanStats stats = tracer.overall(path);
    sum.count += stats.count;
    sum.seconds += stats.total_s;
  }
  return sum;
}

std::vector<double> span_period_totals(const std::string& name) {
  std::map<std::size_t, double> per_period;
  const edgeslice::Tracer& tracer = edgeslice::global_tracer();
  for (const std::string& path : tracer.names()) {
    if (!path_ends_with(path, name)) continue;
    for (const auto& [period, stats] : tracer.periods(path)) {
      per_period[period] += stats.total_s;
    }
  }
  std::vector<double> totals;
  totals.reserve(per_period.size());
  for (const auto& [period, seconds] : per_period) totals.push_back(seconds);
  return totals;
}

const Placement& placement() {
  static const Placement chosen = [] {
    Placement p;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) return p;
    int found[2] = {-1, -1};
    int count = 0;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count < 2; --cpu) {
      if (CPU_ISSET(cpu, &set)) found[count++] = cpu;
    }
    if (count == 2) p.main = found[0], p.helper = found[1];
    return p;
  }();
  return chosen;
}

void pin_calling_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

KeepAwake::KeepAwake() {
  for (const int cpu : {placement().main, placement().helper}) {
    if (cpu < 0) continue;
    spinners_.emplace_back([this, cpu] {
      pin_calling_thread(cpu);
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& spinner : spinners_) spinner.join();
}

std::uint64_t pinned(const Options& options, std::uint64_t digest) {
  return options.corrupt_pins ? digest ^ 1u : digest;
}

const char* pin_gemm_backend() {
  const auto backend = edgeslice::nn::active_gemm_backend();
  edgeslice::nn::set_gemm_backend(backend);
  return edgeslice::nn::gemm_backend_name(backend);
}

void print_provenance(const Options& options, const char* gemm_backend) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("# workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# provenance gemm_backend=%s nproc=%ld ndebug=%d optimized=%d\n",
              gemm_backend, ::sysconf(_SC_NPROCESSORS_ONLN), ndebug ? 1 : 0,
              optimized ? 1 : 0);
  if (!optimized) std::printf("# WARNING: non-optimised build; timings are not representative\n");
  std::fflush(stdout);
}

void print_result(const Result& result) {
  for (const Metric& m : result.metrics) {
    std::printf("# %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::printf("# FAILED CHECK: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
