#include "opt/projection.h"

#include <numeric>
#include <stdexcept>

namespace edgeslice::opt {

void project_halfspace_sum_ge_into(const std::vector<double>& c, double bound,
                                   std::vector<double>& z) {
  if (c.empty()) throw std::invalid_argument("project_halfspace_sum_ge: empty input");
  const double total = std::accumulate(c.begin(), c.end(), 0.0);
  z.assign(c.begin(), c.end());
  if (total >= bound) return;
  const double shift = (bound - total) / static_cast<double>(c.size());
  for (auto& v : z) v += shift;
}

}  // namespace edgeslice::opt
