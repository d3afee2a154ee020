#include "mcmc/diagnostics.hpp"

#include <algorithm>

namespace mcmcpar::mcmc {

void Diagnostics::record(std::string_view moveName, bool accepted) {
  auto it = stats_.find(moveName);
  if (it == stats_.end()) it = stats_.emplace(moveName, MoveStats{}).first;
  MoveStats& s = it->second;
  ++s.proposed;
  if (accepted) ++s.accepted;
}

void Diagnostics::tracePoint(std::uint64_t iteration, double logPosterior,
                             std::size_t circleCount) {
  trace_.push_back(TracePoint{iteration, logPosterior, circleCount});
}

Diagnostics::MoveStats Diagnostics::aggregate(
    const std::vector<std::string>& names) const {
  MoveStats total;
  for (const auto& [name, s] : stats_) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), name) == names.end()) {
      continue;
    }
    total.proposed += s.proposed;
    total.accepted += s.accepted;
  }
  return total;
}

void Diagnostics::merge(const Diagnostics& other) {
  for (const auto& [name, s] : other.stats_) {
    MoveStats& mine = stats_[name];
    mine.proposed += s.proposed;
    mine.accepted += s.accepted;
  }
  trace_.insert(trace_.end(), other.trace_.begin(), other.trace_.end());
  std::stable_sort(trace_.begin(), trace_.end(),
                   [](const TracePoint& a, const TracePoint& b) {
                     return a.iteration < b.iteration;
                   });
}

void Diagnostics::clear() {
  stats_.clear();
  trace_.clear();
}

}  // namespace mcmcpar::mcmc
