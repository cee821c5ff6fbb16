#include "src/base/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/base/log.h"

namespace multics {

void Distribution::Add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
  sum_sq_ += sample * sample;
  sorted_valid_ = false;
}

double Distribution::min() const {
  CHECK(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Distribution::max() const {
  CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Distribution::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return sum_ / static_cast<double>(samples_.size());
}

double Distribution::stddev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double n = static_cast<double>(samples_.size());
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

void Distribution::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Distribution::Percentile(double q) const {
  CHECK(!samples_.empty());
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted_.size())));
  if (rank > 0) {
    --rank;
  }
  return sorted_[std::min(rank, sorted_.size() - 1)];
}

std::string Distribution::Summary() const {
  std::ostringstream os;
  if (samples_.empty()) {
    os << "n=0";
    return os.str();
  }
  os << "n=" << samples_.size() << " mean=" << mean() << " p50=" << Percentile(0.5)
     << " p99=" << Percentile(0.99) << " max=" << max();
  return os.str();
}

void Distribution::Clear() {
  samples_.clear();
  sorted_.clear();
  sorted_valid_ = false;
  sum_ = 0.0;
  sum_sq_ = 0.0;
}

}  // namespace multics
