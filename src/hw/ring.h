// Protection rings and ring brackets, after Schroeder & Saltzer, "A Hardware
// Architecture for Implementing Protection Rings" (CACM 15,3 1972).
//
// Each segment carries a bracket triple (r1 <= r2 <= r3) and permission bits.
// For a process executing in ring r:
//   * write  permitted iff r <= r1 (and the W bit is on)
//   * read   permitted iff r <= r2 (and the R bit is on)
//   * execute (transfer within the segment) iff r1 <= r <= r2 (and E)
//   * call from r in (r2, r3]: permitted only to a designated gate entry;
//     the processor switches execution to ring r2 (an inward call)
//   * call from r < r1: an outward call; the 6180 did not support these in
//     hardware, and we fault on them by default
//   * r > r3: no access of any kind.

#ifndef SRC_HW_RING_H_
#define SRC_HW_RING_H_

#include <cstdint>
#include <string>

namespace multics {

using RingNumber = uint8_t;

inline constexpr RingNumber kRingKernel = 0;   // The security kernel.
inline constexpr RingNumber kRingSupervisor = 1;  // Out-of-kernel trusted code (e.g. policy).
inline constexpr RingNumber kRingUser = 4;     // Default user ring.
inline constexpr RingNumber kRingCount = 8;

struct RingBrackets {
  RingNumber write_limit = 0;    // r1
  RingNumber read_limit = 0;     // r2
  RingNumber gate_limit = 0;     // r3

  bool Valid() const { return write_limit <= read_limit && read_limit <= gate_limit; }

  std::string ToString() const;

  bool operator==(const RingBrackets&) const = default;
};

// Convenience constructors for common cases.
inline RingBrackets UserBrackets() { return {kRingUser, kRingUser, kRingUser}; }
inline RingBrackets KernelPrivateBrackets() { return {kRingKernel, kRingKernel, kRingKernel}; }
inline RingBrackets KernelGateBrackets(RingNumber callers) {
  return {kRingKernel, kRingKernel, callers};
}

enum class AccessMode : uint8_t {
  kRead,
  kWrite,
  kCall,  // Transfer that may cross rings (through a gate).
};

const char* AccessModeName(AccessMode mode);

// Outcome of the pure ring-bracket test (permission bits are checked
// separately by the processor).
enum class RingCheck {
  kAllowed,          // Access permitted in the current ring.
  kGateRequired,     // Call permitted only through a gate entry (inward call).
  kOutwardCall,      // Caller is below the write bracket: outward call.
  kDenied,           // Brackets forbid the access outright.
};

RingCheck CheckRingBrackets(RingNumber ring, const RingBrackets& brackets, AccessMode mode);

// Ring of execution after a permitted call from `ring` into a segment with
// `brackets` (an inward call lands at the top of the execute bracket).
RingNumber TargetRingForCall(RingNumber ring, const RingBrackets& brackets);

}  // namespace multics

#endif  // SRC_HW_RING_H_
