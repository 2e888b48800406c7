// The four benchmark workloads and the scenario pieces they share.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "env/app_model.h"
#include "env/service_model.h"
#include "harness.h"

namespace perfbench {

Result run_city_actor(const Options& options);
Result run_city_taro_pool(const Options& options);
Result run_train_ddpg(const Options& options);
Result run_serve_poisson(const Options& options);

/// Slice application profiles as the repository's benches draw them:
/// the two prototype slices, then random (resolution, model) pairs.
std::vector<edgeslice::env::AppProfile> make_profiles(std::size_t slices,
                                                      edgeslice::Rng& rng);

/// The pre-fitted per-profile linear service model over the prototype
/// substrates (radio, transport and compute are folded in here, at set-up).
std::shared_ptr<const edgeslice::env::ServiceModel> make_service_model(
    const std::vector<edgeslice::env::AppProfile>& profiles);

}  // namespace perfbench
