// Measurement primitives used by the experiment harnesses: percentile-capable
// sample sets. Benches report fault latencies, jitter, etc. through these.
// Names are typed elsewhere: cycle charges are ChargeKind (src/hw/charge.h),
// spans, trace events and audit operations are SpanId
// (src/meter/span_census.h), counters are interned MeterIds (meter.h).

#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace multics {

// Exact sample distribution. Stores every sample; fine at simulation scale.
class Distribution {
 public:
  void Add(double sample);

  size_t count() const { return samples_.size(); }
  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;
  // q in [0, 1]; nearest-rank on the sorted samples.
  double Percentile(double q) const;

  std::string Summary() const;  // "n=... mean=... p50=... p99=... max=..."

  void Clear();

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace multics

#endif  // SRC_BASE_STATS_H_
