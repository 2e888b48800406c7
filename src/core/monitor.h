// The system monitor (Sec. V-D).
//
// Collects network state (traffic, performance, orchestration actions) per
// time interval into an in-memory dataset, maintains the user-slice
// association database (IMSI and IP keyed), and produces the RC-M reports
// the performance coordinator consumes.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/interfaces.h"
#include "env/environment.h"

namespace edgeslice::core {

/// One row of the monitoring dataset.
struct IntervalRecord {
  std::size_t period = 0;
  std::size_t interval = 0;  // global interval index
  std::size_t ra = 0;
  std::vector<double> queue_lengths;   // per slice
  std::vector<double> performance;     // U per slice
  std::vector<double> action;          // slice-major resource fractions
  double reward = 0.0;
};

/// User identity in the association database.
struct UserAssociation {
  std::string imsi;
  std::string ip;
  std::size_t slice = 0;
};

class SystemMonitor {
 public:
  SystemMonitor(std::size_t slices, std::size_t ras);

  /// --- Dataset --------------------------------------------------------------
  /// Fold one interval's performance into the (period, ra) sums and, while
  /// row recording is on, append it as a row.
  void record(std::size_t ra, std::size_t period, std::size_t interval,
              const env::StepResult& result, const std::vector<double>& action);
  /// Fold a whole period's per-slice sums of one RA at once (`sums[i]` is
  /// slice i). For a (period, ra) that has no sums yet this gives exactly
  /// what record() of each interval would: a sum built by the same adds in
  /// the same order from 0.0 added to 0.0 is itself. EdgeSliceSystem uses
  /// it when row recording is off, instead of one record() per interval.
  void add_period_sums(std::size_t ra, std::size_t period, const std::vector<double>& sums);
  const std::vector<IntervalRecord>& records() const { return records_; }

  /// Bound the row log: once more than `max_rows` rows are held, the
  /// oldest rows are evicted (in recording order). 0 — the default —
  /// retains everything. Eviction only trims the raw rows behind
  /// records() and the interval series; the per-(ra, period)
  /// running sums feeding report() are kept for the full history, so
  /// RC-M reports stay exact on arbitrarily long runs.
  void set_retention_cap(std::size_t max_rows) { retention_cap_ = max_rows; }
  std::size_t retention_cap() const { return retention_cap_; }
  /// Rows evicted by the retention cap so far.
  std::size_t evicted_rows() const { return evicted_rows_; }

  /// Disable the per-interval row log entirely (default on). The RC-M
  /// running sums are maintained regardless, so report() stays exact;
  /// records() and the interval series just see no rows. The
  /// city-scale bench runs with rows off: at hundreds of RAs the row log
  /// is the dominant allocator on the period hot path.
  void set_row_recording(bool enabled) { row_recording_ = enabled; }
  /// Whether record() keeps rows (EdgeSliceSystem calls record() only then).
  bool row_recording() const { return row_recording_; }

  /// Bound the per-(period, ra) RC-M sums to the most recent `periods`
  /// periods (0 — the default — retains all). Expired map nodes are
  /// recycled in place for new periods, so once warm the sums add no
  /// allocations. Retention must exceed the system's report-staleness
  /// window; report() on an evicted period returns zero sums.
  void set_period_sum_retention(std::size_t periods) { sum_retention_ = periods; }
  std::size_t period_sum_retention() const { return sum_retention_; }

  /// RC-M report: per-slice performance sums of one RA over one period.
  /// O(slices) — served from running sums maintained at record() time,
  /// never by rescanning the row log.
  RcMonitoringMessage report(std::size_t ra, std::size_t period) const;

  /// System performance (sum of U over slices and RAs) per global interval.
  std::vector<double> system_performance_series() const;

  /// Per-slice performance (summed over RAs) per global interval.
  std::vector<std::vector<double>> slice_performance_series() const;

  /// Mean fraction of resource `k` allocated to `slice` in RA `ra`,
  /// per global interval (Fig. 7's series).
  std::vector<double> resource_usage_series(std::size_t ra, std::size_t slice,
                                            std::size_t resource) const;

  /// --- Association database ---------------------------------------------------
  void register_user(const UserAssociation& user);
  std::size_t slice_of_imsi(const std::string& imsi) const;
  std::size_t user_count() const { return users_.size(); }

  std::size_t slices() const { return slices_; }
  std::size_t ras() const { return ras_; }

 private:
  std::size_t slices_;
  std::size_t ras_;
  std::vector<IntervalRecord> records_;
  std::size_t retention_cap_ = 0;
  std::size_t evicted_rows_ = 0;
  bool row_recording_ = true;
  std::size_t sum_retention_ = 0;
  /// The (period, ra) running sums, opened at zero on first use.
  std::vector<double>& sums_for(std::size_t ra, std::size_t period);
  /// Incremental per-(period, ra) performance sums, updated by record()
  /// in arrival order — the same accumulation order a full-history scan
  /// would use, so report() results are bit-identical to the old scan.
  /// Keyed period-first so expired periods cluster at begin() and their
  /// nodes can be recycled under set_period_sum_retention().
  std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> period_sums_;
  std::vector<UserAssociation> users_;
  std::map<std::string, std::size_t> imsi_index_;
  std::map<std::string, std::size_t> ip_index_;
};

}  // namespace edgeslice::core
