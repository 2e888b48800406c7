// Microbenchmarks of the substrates (google-benchmark).
//
// These quantify the per-operation costs that bound the control loop:
// a DDPG inference/update, a coordinator ADMM iteration, a MAC-scheduler
// TTI, an SDN reconfiguration, a GPU simulation tick, a local
// linear-model prediction, one city RA's environment step, a Poisson
// draw, and framing one served decision.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "common.h"
#include "core/coordinator.h"
#include "ipc/frame.h"
#include "radio/scheduler.h"
#include "serve/protocol.h"
#include "trace/diurnal.h"
#include "transport/transport_manager.h"

using namespace edgeslice;

namespace {

void BM_MatrixMatmul128(benchmark::State& state) {
  Rng rng(1);
  nn::Matrix a(64, 128);
  nn::Matrix b(128, 128);
  for (auto& v : a.data()) v = rng.normal();
  for (auto& v : b.data()) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul(b));
  }
  // 2mnk FLOPs per product; the rate counter reports sustained FLOP/s.
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * 64 * 128 * 128 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MatrixMatmul128);

void BM_MatrixMatmul256(benchmark::State& state) {
  Rng rng(1);
  nn::Matrix a(256, 256);
  nn::Matrix b(256, 256);
  for (auto& v : a.data()) v = rng.normal();
  for (auto& v : b.data()) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul(b));
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * 256 * 256 * 256 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MatrixMatmul256);

// The workload's shape: one city interval's batched actor product is 128
// rows (slices) through 64-wide hidden layers, far from 256^3.
void BM_MatrixMatmul128x64x64(benchmark::State& state) {
  Rng rng(1);
  nn::Matrix a(128, 64);
  nn::Matrix b(64, 64);
  nn::Matrix out;
  for (auto& v : a.data()) v = rng.normal();
  for (auto& v : b.data()) v = rng.normal();
  for (auto _ : state) {
    a.matmul_into(b, out);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * 128 * 64 * 64 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MatrixMatmul128x64x64);

// The backprop input-gradient product dZ * W^T (the bt kernel) at the
// training recipe's hidden shape: 64 rows x 64 deep x 64 columns.
void BM_MatrixMatmulTransposed64(benchmark::State& state) {
  Rng rng(1);
  nn::Matrix a(64, 64);
  nn::Matrix b(64, 64);
  for (auto& v : a.data()) v = rng.normal();
  for (auto& v : b.data()) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul_transposed(b));
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * 64 * 64 * 64 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MatrixMatmulTransposed64);

// Batched actor inference at the city's shape: 128 rows through the
// 16-64-64-24 LeakyReLU/sigmoid actor, allocation-free (Mlp::infer_into,
// so one fused dense kernel per layer under the avx2 backend).
void BM_DenseInfer(benchmark::State& state) {
  Rng rng(1);
  const nn::Mlp actor({16, 64, 64, 24}, nn::Activation::LeakyRelu,
                      nn::Activation::Sigmoid, rng);
  nn::Matrix x(128, 16);
  for (auto& v : x.data()) v = rng.normal();
  std::vector<nn::Matrix> workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(actor.infer_into(x, workspace).data().data());
    benchmark::ClobberMemory();
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * 128 * (16 * 64 + 64 * 64 + 64 * 24) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseInfer);

void BM_DdpgInference(benchmark::State& state) {
  Rng rng(1);
  rl::DdpgConfig config;
  config.base.state_dim = 4;
  config.base.action_dim = 6;
  config.base.hidden = 128;  // the paper's width
  rl::Ddpg agent(config, rng);
  const std::vector<double> s{0.1, 0.2, -0.5, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act(s, false));
  }
}
BENCHMARK(BM_DdpgInference);

void BM_DdpgTrainStep(benchmark::State& state) {
  Rng rng(1);
  rl::DdpgConfig config;
  config.base.state_dim = 4;
  config.base.action_dim = 6;
  config.base.hidden = 128;
  config.batch_size = 512;  // the paper's batch size
  config.warmup = 1;
  rl::Ddpg agent(config, rng);
  Rng data(2);
  // Pre-fill some replay and then time observe() (1 train step each).
  for (int i = 0; i < 64; ++i) {
    agent.observe(data.normals(4), data.uniforms(6), data.normal(), data.normals(4),
                  false);
  }
  for (auto _ : state) {
    agent.observe(data.normals(4), data.uniforms(6), data.normal(), data.normals(4),
                  false);
  }
}
BENCHMARK(BM_DdpgTrainStep);

// One DDPG update at the training recipe's shape (perfbench train_ddpg,
// bench/common.cpp): state 10, action 15 (5 slices), hidden 64 x 2,
// batch 64. The replay is warmed past the batch before timing, so each
// observe() is one push plus one train_batch().
void BM_DdpgTrainBatch(benchmark::State& state) {
  Rng rng(1);
  rl::DdpgConfig config;
  config.base.state_dim = 10;
  config.base.action_dim = 15;
  config.base.hidden = 64;
  config.base.hidden_layers = 2;
  config.batch_size = 64;
  config.warmup = 128;
  rl::Ddpg agent(config, rng);
  Rng data(2);
  const auto observe = [&] {
    agent.observe(data.normals(10), data.uniforms(15), data.normal(), data.normals(10),
                  false);
  };
  for (std::size_t i = 0; i < config.warmup; ++i) observe();
  for (auto _ : state) observe();
}
BENCHMARK(BM_DdpgTrainBatch);

void BM_CoordinatorUpdate(benchmark::State& state) {
  const auto slices = static_cast<std::size_t>(state.range(0));
  const auto ras = static_cast<std::size_t>(state.range(1));
  core::CoordinatorConfig config;
  config.slices = slices;
  config.ras = ras;
  core::PerformanceCoordinator coordinator(config);
  nn::Matrix u(slices, ras, -10.0);
  for (auto _ : state) {
    coordinator.update(u);
  }
}
BENCHMARK(BM_CoordinatorUpdate)->Args({2, 2})->Args({5, 10})->Args({20, 100});

void BM_MacSchedulerTti(benchmark::State& state) {
  radio::SliceAwareScheduler scheduler(25, {13, 12});
  std::vector<radio::UserDemand> users;
  for (std::size_t u = 0; u < 8; ++u) {
    users.push_back(radio::UserDemand{u, u % 2, 9, 1e5});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(users));
  }
}
BENCHMARK(BM_MacSchedulerTti);

void BM_TransportReconfig(benchmark::State& state) {
  transport::TransportManagerConfig config;
  transport::TransportManager manager(config);
  double share = 0.2;
  for (auto _ : state) {
    share = share >= 0.8 ? 0.2 : share + 0.1;
    benchmark::DoNotOptimize(manager.set_slice_share(0, share));
  }
}
BENCHMARK(BM_TransportReconfig);

void BM_GpuTick(benchmark::State& state) {
  compute::GpuConfig config;
  config.total_threads = 51200;
  compute::Gpu gpu(config);
  const auto a = gpu.register_app();
  const auto b = gpu.register_app();
  for (auto _ : state) {
    state.PauseTiming();
    if (gpu.idle(a)) gpu.submit(a, compute::Kernel{30000, 1e9});
    if (gpu.idle(b)) gpu.submit(b, compute::Kernel{30000, 1e9});
    state.ResumeTiming();
    benchmark::DoNotOptimize(gpu.run(1e-3, 1e-3));
  }
}
BENCHMARK(BM_GpuTick);

void BM_LinearModelPrediction(benchmark::State& state) {
  const env::DirectServiceModel truth(env::prototype_capacity());
  const auto grid = std::make_shared<env::GridDataset>(env::slice1_profile(), truth, 0.1);
  const env::LocalLinearServiceModel model(grid);
  Rng rng(1);
  for (auto _ : state) {
    const env::Allocation a{rng.uniform(), rng.uniform(), rng.uniform()};
    benchmark::DoNotOptimize(model.service_time(env::slice1_profile(), a));
  }
}
BENCHMARK(BM_LinearModelPrediction);

void BM_EnvironmentStep(benchmark::State& state) {
  const auto model = std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
  env::RaEnvironment environment({}, {env::slice1_profile(), env::slice2_profile()},
                                 model, env::make_queue_power_perf(), Rng(1));
  const std::vector<double> action(6, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(environment.step(action));
  }
}
BENCHMARK(BM_EnvironmentStep);

// One interval of one city RA, untraced: 8 slices with the city's
// per-profile grid models (bench::make_profiles at seed 1), a
// diurnal arrival profile peaking at 3.5 tasks per interval (one day of
// 24 periods x 6 intervals, as in perfbench's city), and U = -(queue)^2.
// Unlike perfbench's traced leg, no decorator wraps the service model, so
// the environment resolves each slice's grid model once and the timing
// shows what a step costs. The allocation is a fixed equal split.
void BM_CityEnvironmentStep(benchmark::State& state) {
  constexpr std::size_t kSlices = 8;
  constexpr std::size_t kBins = 24 * 6;
  constexpr double kPeakRate = 3.5;
  Rng rng(1);
  const auto profiles = bench::make_profiles(kSlices, rng);
  env::RaEnvironmentConfig config;
  config.slices = kSlices;
  config.intervals_per_period = 6;
  config.arrival_rate = kPeakRate;
  env::RaEnvironment environment(config, profiles, bench::make_service_model(profiles),
                                 env::make_queue_power_perf(2.0), Rng(2));
  const trace::CellProfile cell = trace::sample_cell_profile(rng);
  std::vector<std::vector<double>> rates(kSlices, std::vector<double>(kBins));
  for (std::size_t i = 0; i < kSlices; ++i) {
    for (std::size_t t = 0; t < kBins; ++t) {
      const double hour = std::fmod(24.0 * (static_cast<double>(t) + 0.5) / kBins +
                                        1.5 * static_cast<double>(i),
                                    24.0);
      rates[i][t] = trace::cell_activity(cell, hour);
    }
    const double peak = *std::max_element(rates[i].begin(), rates[i].end());
    for (double& r : rates[i]) r = peak > 0.0 ? r / peak * kPeakRate : 0.0;
  }
  environment.set_arrival_profiles(rates);
  const std::vector<double> action(environment.action_dim(), 1.0 / kSlices);
  env::StepResult result;
  for (auto _ : state) {
    environment.step_into(action, result);
    benchmark::DoNotOptimize(result.reward);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSlices));
}
BENCHMARK(BM_CityEnvironmentStep);

// Poisson draws at the city's arrival means: 64 means spread over
// (0, 3.5], cycled, so the product loop's trip count varies as in a day.
void BM_RngPoisson(benchmark::State& state) {
  constexpr std::size_t kMeans = 64;
  std::vector<double> means(kMeans);
  for (std::size_t k = 0; k < kMeans; ++k) {
    means[k] = 3.5 * static_cast<double>(k + 1) / static_cast<double>(kMeans);
  }
  Rng rng(1);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(means[k]));
    k = (k + 1) % kMeans;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngPoisson);

// One served decision framed for the wire, with a 24-wide action (the
// city actor's 8 slices x 3 resources). in_place:0 is the stream codec
// plus encode_frame (an ostringstream, a Frame and two strings per
// response); in_place:1 is the policy server's append into a reused
// output buffer. Both produce the same bytes.
void BM_ServeEncodeResponse(benchmark::State& state) {
  Rng rng(1);
  serve::DecideResponsePayload response;
  response.request_id = 42;
  response.action = rng.uniforms(24);
  const bool in_place = state.range(0) == 1;
  std::string out;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    if (in_place) {
      out.clear();
      serve::append_decide_response_frame(out, seq++, response);
      benchmark::DoNotOptimize(out.data());
    } else {
      ipc::Frame frame;
      frame.type = ipc::FrameType::DecideResponse;
      frame.seq = seq++;
      frame.payload = serve::encode_decide_response(response);
      benchmark::DoNotOptimize(ipc::encode_frame(frame));
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ServeEncodeResponse)->ArgName("in_place")->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
