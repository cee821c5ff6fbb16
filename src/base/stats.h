// Measurement primitives used by the experiment harnesses: counters, running
// moments, and percentile-capable sample sets. Benches report fault latencies,
// jitter, gate-crossing counts, etc. through these.

#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace multics {

// A name with static storage duration: the only way to name a counter,
// cycle-charge category, trace event, or span by text on a hot path. The
// constructor is consteval and takes a character array, so a string literal
// or a static array converts, while a runtime buffer does not compile —
// std::string::c_str() is no array, and the address of a stack array is no
// constant expression. A StaticName's pointer therefore identifies its text
// for the life of the program, which lets the caches below and the flight
// recorder keep the pointer instead of a copy.
class StaticName {
 public:
  template <size_t N>
  consteval StaticName(const char (&name)[N]) : name_(name) {}  // Implicit: literals convert.

  constexpr const char* c_str() const { return name_; }

 private:
  const char* name_;
};

// Open-addressed StaticName -> small-integer cache for hot paths. It
// compares and stores the *pointer*, never the characters, so one text
// reached through two pointers is two keys: callers keep a string-keyed
// structure as the source of truth and use this purely as a lookaside, so a
// cold miss is never wrong, only slow.
class StaticNameCache {
 public:
  static constexpr uint32_t kMiss = 0xffffffffu;

  uint32_t Lookup(StaticName name) const {
    const void* key = name.c_str();
    if (slots_.empty()) {
      return kMiss;
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.key == key) {
        return slot.value;
      }
      if (slot.key == nullptr) {
        return kMiss;
      }
    }
  }

  void Insert(StaticName name, uint32_t value) { Place(name.c_str(), value); }

  void Clear() {
    slots_.clear();
    count_ = 0;
  }

 private:
  struct Slot {
    const void* key = nullptr;
    uint32_t value = 0;
  };

  static size_t Hash(const void* key) {
    return (reinterpret_cast<uintptr_t>(key) >> 3) * 0x9E3779B97F4A7C15ull;
  }

  void Place(const void* key, uint32_t value) {
    if ((count_ + 1) * 4 >= slots_.size() * 3) {
      Grow();
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.key == key) {
        slot.value = value;
        return;
      }
      if (slot.key == nullptr) {
        slot = Slot{key, value};
        ++count_;
        return;
      }
    }
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    count_ = 0;
    for (const Slot& slot : old) {
      if (slot.key != nullptr) {
        Place(slot.key, slot.value);
      }
    }
  }

  std::vector<Slot> slots_;
  size_t count_ = 0;
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

// Named monotonic counters, used for structural metrics (gate crossings,
// kernel instructions executed, pages moved, audit denials...). Every cycle
// charge goes through Increment. The name-sorted index is the source of
// truth (Snapshot() is therefore deterministically name-ordered); values
// live in a separate slot array so Increment — which every Machine::Charge
// call takes — is one StaticNameCache probe plus an array add, with no
// temporary std::string.
class CounterSet {
 public:
  void Increment(StaticName name, uint64_t delta = 1) {
    uint32_t slot = ptr_cache_.Lookup(name);
    if (slot == StaticNameCache::kMiss) {
      slot = SlotFor(name.c_str());
      ptr_cache_.Insert(name, slot);
    }
    cells_[slot] += delta;
  }
  uint64_t Get(const std::string& name) const;
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;
  void Clear();

 private:
  uint32_t SlotFor(std::string_view name);

  // Kept sorted by name; second is the index into cells_ (stable).
  std::vector<std::pair<std::string, uint32_t>> names_;
  std::vector<uint64_t> cells_;
  StaticNameCache ptr_cache_;
};

}  // namespace multics

#endif  // SRC_BASE_STATS_H_
