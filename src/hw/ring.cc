#include "src/hw/ring.h"

#include <sstream>

namespace multics {

std::string RingBrackets::ToString() const {
  std::ostringstream os;
  os << "(" << static_cast<int>(write_limit) << "," << static_cast<int>(read_limit) << ","
     << static_cast<int>(gate_limit) << ")";
  return os.str();
}

const char* AccessModeName(AccessMode mode) {
  switch (mode) {
    case AccessMode::kRead:
      return "read";
    case AccessMode::kWrite:
      return "write";
    case AccessMode::kCall:
      return "call";
  }
  return "?";
}

RingCheck CheckRingBrackets(RingNumber ring, const RingBrackets& b, AccessMode mode) {
  switch (mode) {
    case AccessMode::kWrite:
      return ring <= b.write_limit ? RingCheck::kAllowed : RingCheck::kDenied;
    case AccessMode::kRead:
      return ring <= b.read_limit ? RingCheck::kAllowed : RingCheck::kDenied;
    case AccessMode::kCall:
      if (ring >= b.write_limit && ring <= b.read_limit) {
        return RingCheck::kAllowed;  // Same-ring (or intra-bracket) call.
      }
      if (ring > b.read_limit && ring <= b.gate_limit) {
        return RingCheck::kGateRequired;  // Inward call, gate only.
      }
      if (ring < b.write_limit) {
        return RingCheck::kOutwardCall;
      }
      return RingCheck::kDenied;
  }
  return RingCheck::kDenied;
}

RingNumber TargetRingForCall(RingNumber ring, const RingBrackets& b) {
  if (ring > b.read_limit) {
    return b.read_limit;  // Inward call lands at top of execute bracket.
  }
  return ring;  // Intra-bracket call stays put.
}

}  // namespace multics
