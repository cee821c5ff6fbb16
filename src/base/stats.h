// Measurement primitives used by the experiment harnesses: the StaticName
// type that names trace events and spans, and percentile-capable sample
// sets. Benches report fault latencies, jitter, etc. through these. The
// cycle-charge totals are a census-indexed CounterSet (src/hw/charge.h).

#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace multics {

// A name with static storage duration: the name type of whatever keeps a
// name by pointer — trace events (Meter::Emit), causal spans (OpenSpan,
// TraceSpan) and gate names. The constructor is consteval and takes a
// character array, so a string literal or a static array converts, while a
// runtime buffer does not compile — std::string::c_str() is no array, and
// the address of a stack array is no constant expression. A StaticName's
// pointer therefore identifies its text for the life of the program, which
// lets the flight recorder and the span stack keep the pointer instead of a
// copy.
class StaticName {
 public:
  template <size_t N>
  consteval StaticName(const char (&name)[N]) : name_(name) {}  // Implicit: literals convert.

  constexpr const char* c_str() const { return name_; }

 private:
  const char* name_;
};

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
