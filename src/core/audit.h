// The audit log: every reference-monitor decision is recorded here. The
// fault-injection experiments (E6, E10) use the log to demonstrate the
// negative property the paper cares about — that misbehaving non-kernel code
// produced *zero* unauthorized accesses, only denials.

#ifndef SRC_CORE_AUDIT_H_
#define SRC_CORE_AUDIT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/fs/acl.h"
#include "src/fs/branch.h"
#include "src/meter/span_census.h"

namespace multics {

// One reference-monitor decision. The operation is a row of the name census
// (a gate, or the answering service's kUserRingLogin), so a misspelt
// operation does not compile; nothing is spelt until the record is read.
struct AuditRecord {
  Cycles time = 0;
  Principal principal;
  SpanId operation{};
  Uid uid = kInvalidUid;
  Status outcome = Status::kOk;

  // "<time> <person.project.tag> <operation> <uid> <STATUS>".
  std::string ToString() const;
};

class AuditLog {
 public:
  explicit AuditLog(uint32_t keep_recent = 1024) : keep_recent_(keep_recent) {}

  void Record(Cycles time, const Principal& principal, SpanId operation, Uid uid,
              Status outcome);

  uint64_t grants() const { return grants_; }
  uint64_t denials() const { return denials_; }
  // Lifetime count of denials with exactly this status. Backed by counters,
  // not the bounded `recent_` window, so it stays correct on long runs.
  uint64_t denials_with(Status status) const {
    return denials_by_status_[static_cast<size_t>(status)];
  }

  // Lifetime per-category counts (MLS = read-up/write-down, ACL, rings).
  uint64_t mls_denials() const {
    return denials_with(Status::kMlsReadViolation) + denials_with(Status::kMlsWriteViolation);
  }
  uint64_t acl_denials() const { return denials_with(Status::kAccessDenied); }
  uint64_t ring_denials() const {
    return denials_with(Status::kRingViolation) + denials_with(Status::kNotAGate);
  }

  const std::deque<AuditRecord>& recent() const { return recent_; }

  void Clear();

 private:
  uint32_t keep_recent_;
  std::deque<AuditRecord> recent_;
  uint64_t grants_ = 0;
  uint64_t denials_ = 0;
  std::array<uint64_t, kStatusCodeLimit> denials_by_status_{};
};

}  // namespace multics

#endif  // SRC_CORE_AUDIT_H_
