// Radio resource manager — the VR-R middleware of Sec. V-A.
//
// Bridges the orchestration agent's virtual-resource (VR) view — "slice i
// gets fraction x of the radio bandwidth" — to PRB quotas enforced by the
// slice-aware MAC scheduler. User/slice association is learned from
// simulated S1AP attach messages carrying the user's IMSI, exactly the
// extraction point the paper uses (eNB -> MME S1AP), requiring no
// modification on the user side.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "radio/channel.h"
#include "radio/scheduler.h"

namespace edgeslice::radio {

/// Simulated S1AP Initial UE Message, as sent from eNodeB to MME.
struct S1apAttach {
  std::string imsi;
  std::size_t enb_id = 0;
  std::size_t user_id = 0;  // RNTI-like local identifier
};

struct RadioManagerConfig {
  double bandwidth_mhz = 5.0;  // prototype: 5 MHz = 25 PRBs per eNodeB
  std::size_t slices = 2;
};

class RadioManager {
 public:
  RadioManager(const RadioManagerConfig& config, Rng& rng);

  /// --- VR-R interface (called by the orchestration agent) ---------------
  /// Set slice i's share of the radio bandwidth (fraction in [0,1]).
  /// Shares are quantized to whole PRBs.
  void set_slice_share(std::size_t slice, double fraction);
  /// Current PRB quota of a slice.
  std::size_t slice_prbs(std::size_t slice) const;

  /// --- Attach / association (S1AP path) ---------------------------------
  /// Process an attach; the IMSI -> slice mapping must already be known
  /// (registered by the system monitor / slice request interface).
  void register_imsi(const std::string& imsi, std::size_t slice);
  void on_attach(const S1apAttach& message, std::size_t mean_cqi = 9);
  std::size_t user_count() const { return users_.size(); }
  std::size_t slice_of_user(std::size_t user_id) const;

  /// --- Data path ---------------------------------------------------------
  /// Add downlink traffic for a user (bits buffered at the eNodeB).
  void enqueue_bits(std::size_t user_id, double bits);
  double user_backlog(std::size_t user_id) const;

  /// Run `ttis` scheduling rounds (1 TTI = 1 ms); channel models advance
  /// each TTI. Returns per-slice served bits.
  std::vector<double> run(std::size_t ttis, Rng& rng);

  /// Analytic per-interval capacity of a slice in bits for `seconds`,
  /// assuming saturated demand at CQI `cqi` — used by the grid-search
  /// dataset generator where per-TTI simulation would be wasteful.
  double slice_capacity_bits(std::size_t slice, double seconds, std::size_t cqi = 9) const;

  std::size_t total_prbs() const { return scheduler_.total_prbs(); }
  std::size_t slice_count() const { return slice_share_.size(); }

 private:
  struct UserState {
    std::size_t slice = 0;
    ChannelModel channel;
    double backlog_bits = 0.0;
  };

  RadioManagerConfig config_;
  std::vector<double> slice_share_;
  SliceAwareScheduler scheduler_;
  std::map<std::string, std::size_t> imsi_to_slice_;
  std::map<std::size_t, UserState> users_;
};

}  // namespace edgeslice::radio
