#include "src/core/gate.h"

namespace multics {

const char* GateCategoryName(GateCategory category) {
  switch (category) {
    case GateCategory::kAddressSpace:
      return "address-space";
    case GateCategory::kPathAddressing:
      return "path-addressing";
    case GateCategory::kNaming:
      return "naming";
    case GateCategory::kLinker:
      return "linker";
    case GateCategory::kFileSystem:
      return "file-system";
    case GateCategory::kSegment:
      return "segment";
    case GateCategory::kProcess:
      return "process";
    case GateCategory::kIpc:
      return "ipc";
    case GateCategory::kDeviceIo:
      return "device-io";
    case GateCategory::kNetwork:
      return "network";
    case GateCategory::kAdmin:
      return "admin";
  }
  return "?";
}

Status GateTable::Register(GateId id) {
  if (Has(id)) {
    return Status::kAlreadyExists;
  }
  present_.set(GateIndex(id));
  return Status::kOk;
}

uint32_t GateTable::CountByCategory(GateCategory category) const {
  uint32_t n = 0;
  for (size_t i = 0; i < kGateCount; ++i) {
    if (present_.test(i) && GateCategoryOf(GateAt(i)) == category) {
      ++n;
    }
  }
  return n;
}

std::vector<GateInfo> GateTable::gates() const {
  std::vector<GateInfo> out;
  out.reserve(present_.count());
  for (size_t i = 0; i < kGateCount; ++i) {
    if (present_.test(i)) {
      const GateId id = GateAt(i);
      out.push_back(GateInfo{GateName(id), GateCategoryOf(id), calls_[i]});
    }
  }
  return out;
}

}  // namespace multics
