#include "src/hw/charge.h"

#include <algorithm>

namespace multics {

uint64_t CounterSet::Get(const std::string& name) const {
  const auto& names = charge_internal::kChargeNames;
  auto it = std::lower_bound(names.begin(), names.end(), std::string_view(name));
  return it != names.end() && *it == name ? cells_[it - names.begin()] : 0;
}

std::vector<std::pair<std::string, uint64_t>> CounterSet::Snapshot() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (size_t i = 0; i < kChargeKindCount; ++i) {
    if (touched_[i]) {
      out.emplace_back(std::string(ChargeName(ChargeAt(i))), cells_[i]);
    }
  }
  return out;
}

}  // namespace multics
