// Error model for the Multics security-kernel reproduction.
//
// Library code does not throw; every fallible kernel or substrate operation
// returns a Status (or Result<T>, see src/base/result.h). The codes mirror the
// error conditions Multics surfaced at its gate interfaces: access violations
// detected by the reference monitor, ring-bracket faults detected by the
// processor, storage-system conditions, and resource exhaustion.

#ifndef SRC_BASE_STATUS_H_
#define SRC_BASE_STATUS_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace multics {

// [[nodiscard]] on the enum type makes every by-value Status return site a
// compiler-checked obligation: a caller that drops one silently is exactly
// the "undesired becomes unauthorized" bug class the review activity hunts.
enum class [[nodiscard]] Status : int32_t {
  kOk = 0,

  // Generic argument / state errors.
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kResourceExhausted = 8,

  // Protection errors raised by the reference monitor / hardware.
  kAccessDenied = 20,        // ACL does not grant the requested mode.
  kRingViolation = 21,       // Ring brackets forbid the access.
  kNotAGate = 22,            // Cross-ring transfer to a non-gate location.
  kMlsReadViolation = 23,    // Simple-security (read-up) violation.
  kMlsWriteViolation = 24,   // *-property (write-down) violation.
  kAuthenticationFailed = 25,

  // Storage-system conditions.
  kNoSuchSegment = 40,
  kNoSuchDirectory = 41,
  kNotADirectory = 42,
  kIsADirectory = 43,
  kNameDuplication = 44,
  kSegmentTooLong = 45,
  kQuotaExceeded = 46,
  kSegmentDamaged = 47,
  kDirectoryNotEmpty = 48,

  // Address-space conditions.
  kSegmentNotKnown = 60,
  kSegmentAlreadyKnown = 61,
  kNoFreeSegmentNumbers = 62,
  kReferenceNameBound = 63,
  kNoSuchReferenceName = 64,

  // Linkage conditions.
  kBadObjectFormat = 80,
  kLinkageFault = 81,
  kSymbolNotFound = 82,

  // Process / IPC conditions.
  kNoSuchProcess = 100,
  kNoSuchChannel = 101,
  kProcessLimit = 102,
  kChannelFull = 103,

  // Device / network conditions.
  kDeviceError = 120,
  kConnectionClosed = 121,
  kBufferOverrun = 122,

  // Fault-injection conditions (src/hw/injection.h). kParityError models a
  // hardware parity fault on a memory reference or device transfer;
  // kProcessCrashed is the injected "process died inside the kernel" used by
  // the crash-restart recovery driver.
  kParityError = 130,
  kProcessCrashed = 131,  // Keep last: kStatusCodeLimit is one past it.
};

// One past the largest code: the size of a Status-indexed table.
inline constexpr size_t kStatusCodeLimit = static_cast<size_t>(Status::kProcessCrashed) + 1;

// Returns a stable, human-readable name such as "ACCESS_DENIED".
std::string_view StatusName(Status status);

inline bool IsOk(Status status) { return status == Status::kOk; }

std::ostream& operator<<(std::ostream& os, Status status);

}  // namespace multics

#endif  // SRC_BASE_STATUS_H_
