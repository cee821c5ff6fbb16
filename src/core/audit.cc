#include "src/core/audit.h"

namespace multics {

std::string AuditRecord::ToString() const {
  return std::to_string(time) + " " + principal.ToString() + " " + SpanName(operation) + " " +
         std::to_string(uid) + " " + std::string(StatusName(outcome));
}

void AuditLog::Record(Cycles time, const Principal& principal, SpanId operation, Uid uid,
                      Status outcome) {
  recent_.push_back(AuditRecord{time, principal, operation, uid, outcome});
  if (recent_.size() > keep_recent_) {
    recent_.pop_front();
  }
  if (outcome == Status::kOk) {
    ++grants_;
    return;
  }
  ++denials_;
  ++denials_by_status_[static_cast<size_t>(outcome)];
}

void AuditLog::Clear() {
  recent_.clear();
  grants_ = 0;
  denials_ = 0;
  denials_by_status_.fill(0);
}

}  // namespace multics
