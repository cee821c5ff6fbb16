// The gate table: the registry of supervisor entry points callable from the
// user ring. This is the object experiment E1 takes its census over — the
// paper reports that removing the linker eliminated 10% of the gate entry
// points and that the linker and reference-name removals together cut the
// user-available supervisor entries by about one third.

#ifndef SRC_CORE_GATE_H_
#define SRC_CORE_GATE_H_

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/stats.h"

namespace multics {

enum class GateCategory {
  kAddressSpace,    // Segment-number based initiation/termination.
  kPathAddressing,  // Pathname-based initiation (removed with naming).
  kNaming,          // Reference names, search rules (removed).
  kLinker,          // Dynamic linking (removed).
  kFileSystem,      // Directory/branch manipulation.
  kSegment,         // Length, truncation, status.
  kProcess,         // Process management.
  kIpc,             // Event channels and wakeups.
  kDeviceIo,        // Per-device I/O stacks (removed).
  kNetwork,         // The single network attachment.
  kAdmin,           // Shutdown, metering, authentication.
};

const char* GateCategoryName(GateCategory category);

// Which KernelConfiguration switch keeps a gate in the kernel
// (PresentGates in config.h turns a configuration into a GateSet).
enum class GatePresence {
  kAlways,
  kNamingInKernel,   // naming_in_kernel
  kLinkerInKernel,   // linker_in_kernel
  kPerDeviceIo,      // per_device_io
  kLegacyLogin,      // !login_as_subsystem_entry
};

// The gate census (experiment E1's unit of measure): the single source of
// truth for the supervisor's user-callable surface, one row per gate,
// X(enumerator, "name", GateCategory, GatePresence), in census order. It
// generates GateId, so a gate prologue can only name a census gate — any
// other name is a compile error — and the static certifier
// (src/audit_static) re-derives each configuration's surface from it to
// verify the live table. mx_lint checks that some gate body in src/core
// names every row as GateId::kX.
#define MX_GATE_CENSUS(X)                                                        \
  /* Segment-number address space (the minimal interface). */                    \
  X(kGetRootDir, "get_root_dir", kAddressSpace, kAlways)                         \
  X(kInitiateSeg, "initiate_seg", kAddressSpace, kAlways)                        \
  X(kTerminateSeg, "terminate_seg", kAddressSpace, kAlways)                      \
  X(kKstStatus, "kst_status", kAddressSpace, kAlways)                            \
  /* Pathname addressing: the kernel-resident half of the old naming world. */   \
  X(kInitiatePath, "initiate_path", kPathAddressing, kNamingInKernel)            \
  X(kInitiateCountPath, "initiate_count_path", kPathAddressing, kNamingInKernel) \
  X(kTerminatePath, "terminate_path", kPathAddressing, kNamingInKernel)          \
  X(kTerminateFilePath, "terminate_file_path", kPathAddressing, kNamingInKernel) \
  X(kStatusPath, "status_path", kPathAddressing, kNamingInKernel)                \
  X(kCreateSegPath, "create_seg_path", kPathAddressing, kNamingInKernel)         \
  X(kDeletePath, "delete_path", kPathAddressing, kNamingInKernel)                \
  X(kListDirPath, "list_dir_path", kPathAddressing, kNamingInKernel)             \
  X(kSetAclPath, "set_acl_path", kPathAddressing, kNamingInKernel)               \
  X(kChnamePath, "chname_path", kPathAddressing, kNamingInKernel)                \
  X(kQuotaReadPath, "quota_read_path", kPathAddressing, kNamingInKernel)         \
  X(kBindRefName, "bind_ref_name", kNaming, kNamingInKernel)                     \
  X(kUnbindRefName, "unbind_ref_name", kNaming, kNamingInKernel)                 \
  X(kLookupRefName, "lookup_ref_name", kNaming, kNamingInKernel)                 \
  X(kListRefNames, "list_ref_names", kNaming, kNamingInKernel)                   \
  X(kTerminateRefName, "terminate_ref_name", kNaming, kNamingInKernel)           \
  X(kSetSearchRules, "set_search_rules", kNaming, kNamingInKernel)               \
  X(kGetSearchRules, "get_search_rules", kNaming, kNamingInKernel)               \
  X(kSearchInitiate, "search_initiate", kNaming, kNamingInKernel)                \
  X(kGetPathname, "get_pathname", kNaming, kNamingInKernel)                      \
  X(kExpandPathname, "expand_pathname", kNaming, kNamingInKernel)                \
  X(kLinkSnapAll, "link_snap_all", kLinker, kLinkerInKernel)                     \
  X(kLinkSnapOne, "link_snap_one", kLinker, kLinkerInKernel)                     \
  X(kLinkLookupSymbol, "link_lookup_symbol", kLinker, kLinkerInKernel)           \
  X(kLinkGetEntryBound, "link_get_entry_bound", kLinker, kLinkerInKernel)        \
  X(kLinkGetDefs, "link_get_defs", kLinker, kLinkerInKernel)                     \
  X(kLinkUnsnap, "link_unsnap", kLinker, kLinkerInKernel)                        \
  X(kCombineLinkage, "combine_linkage", kLinker, kLinkerInKernel)                \
  X(kSetLinkagePtr, "set_linkage_ptr", kLinker, kLinkerInKernel)                 \
  /* File system (segment-number directory interface). */                        \
  X(kFsCreateSeg, "fs_create_seg", kFileSystem, kAlways)                         \
  X(kFsCreateDir, "fs_create_dir", kFileSystem, kAlways)                         \
  X(kFsCreateLink, "fs_create_link", kFileSystem, kAlways)                       \
  X(kFsDeleteEntry, "fs_delete_entry", kFileSystem, kAlways)                     \
  X(kFsRename, "fs_rename", kFileSystem, kAlways)                                \
  X(kFsAddName, "fs_add_name", kFileSystem, kAlways)                             \
  X(kFsListDir, "fs_list_dir", kFileSystem, kAlways)                             \
  X(kFsStatusSeg, "fs_status_seg", kFileSystem, kAlways)                         \
  X(kFsSetAcl, "fs_set_acl", kFileSystem, kAlways)                               \
  X(kFsRemoveAclEntry, "fs_remove_acl_entry", kFileSystem, kAlways)              \
  X(kFsListAcl, "fs_list_acl", kFileSystem, kAlways)                             \
  X(kFsSetRingBrackets, "fs_set_ring_brackets", kFileSystem, kAlways)            \
  X(kFsSetMaxLength, "fs_set_max_length", kFileSystem, kAlways)                  \
  X(kFsSetQuota, "fs_set_quota", kFileSystem, kAlways)                           \
  X(kFsGetQuota, "fs_get_quota", kFileSystem, kAlways)                           \
  X(kSegGetLength, "seg_get_length", kSegment, kAlways)                          \
  X(kSegSetLength, "seg_set_length", kSegment, kAlways)                          \
  X(kSegTruncate, "seg_truncate", kSegment, kAlways)                             \
  X(kProcCreate, "proc_create", kProcess, kAlways)                               \
  X(kProcDestroy, "proc_destroy", kProcess, kAlways)                             \
  X(kProcGetInfo, "proc_get_info", kProcess, kAlways)                            \
  X(kProcMetering, "proc_metering", kProcess, kAlways)                           \
  X(kIpcCreateChannel, "ipc_create_channel", kIpc, kAlways)                      \
  X(kIpcDestroyChannel, "ipc_destroy_channel", kIpc, kAlways)                    \
  X(kIpcWakeup, "ipc_wakeup", kIpc, kAlways)                                     \
  X(kIpcBlock, "ipc_block", kIpc, kAlways)                                       \
  X(kIpcChannelStatus, "ipc_channel_status", kIpc, kAlways)                      \
  X(kTtyRead, "tty_read", kDeviceIo, kPerDeviceIo)                               \
  X(kTtyWrite, "tty_write", kDeviceIo, kPerDeviceIo)                             \
  X(kCardRead, "card_read", kDeviceIo, kPerDeviceIo)                             \
  X(kPrinterWrite, "printer_write", kDeviceIo, kPerDeviceIo)                     \
  X(kPrinterEject, "printer_eject", kDeviceIo, kPerDeviceIo)                     \
  X(kTapeRead, "tape_read", kDeviceIo, kPerDeviceIo)                             \
  X(kTapeWrite, "tape_write", kDeviceIo, kPerDeviceIo)                           \
  X(kTapeRewind, "tape_rewind", kDeviceIo, kPerDeviceIo)                         \
  X(kTapeSkip, "tape_skip", kDeviceIo, kPerDeviceIo)                             \
  X(kNetOpen, "net_open", kNetwork, kAlways)                                     \
  X(kNetClose, "net_close", kNetwork, kAlways)                                   \
  X(kNetRead, "net_read", kNetwork, kAlways)                                     \
  X(kNetWrite, "net_write", kNetwork, kAlways)                                   \
  X(kNetStatus, "net_status", kNetwork, kAlways)                                 \
  X(kShutdown, "shutdown", kAdmin, kAlways)                                      \
  X(kMeteringInfo, "metering_info", kAdmin, kAlways)                             \
  X(kLogin, "login", kAdmin, kLegacyLogin)                                       \
  X(kLogout, "logout", kAdmin, kLegacyLogin)

enum class GateId : uint8_t {
#define MX_GATE_ENUMERATOR(id, name, category, presence) id,
  MX_GATE_CENSUS(MX_GATE_ENUMERATOR)
#undef MX_GATE_ENUMERATOR
};

#define MX_GATE_ONE(id, name, category, presence) +1
inline constexpr size_t kGateCount = 0 MX_GATE_CENSUS(MX_GATE_ONE);
#undef MX_GATE_ONE

namespace gate_internal {
struct GateRow {
  StaticName name;
  GateCategory category;
  GatePresence presence;
};
inline constexpr GateRow kGateRows[kGateCount] = {
#define MX_GATE_ROW(id, name, category, presence) \
  {name, GateCategory::category, GatePresence::presence},
    MX_GATE_CENSUS(MX_GATE_ROW)
#undef MX_GATE_ROW
};
}  // namespace gate_internal

constexpr size_t GateIndex(GateId id) { return static_cast<size_t>(id); }
constexpr GateId GateAt(size_t index) { return static_cast<GateId>(index); }
constexpr StaticName GateName(GateId id) { return gate_internal::kGateRows[GateIndex(id)].name; }
constexpr GateCategory GateCategoryOf(GateId id) {
  return gate_internal::kGateRows[GateIndex(id)].category;
}
constexpr GatePresence GatePresenceOf(GateId id) {
  return gate_internal::kGateRows[GateIndex(id)].presence;
}

// A set of gates, indexed by GateIndex: one configuration's surface.
using GateSet = std::bitset<kGateCount>;

struct GateInfo {
  std::string name;
  GateCategory category;
  uint64_t calls = 0;
};

class GateTable {
 public:
  explicit GateTable(const GateSet& present) : present_(present) {}

  // Adds a gate to this table; kAlreadyExists if it is already there.
  Status Register(GateId id);
  bool Has(GateId id) const { return present_.test(GateIndex(id)); }

  // Counts a call through the gate; kNotAGate if this configuration's kernel
  // does not have it (the mechanism was removed from the kernel).
  Status RecordCall(GateId id) {
    if (!Has(id)) {
      return Status::kNotAGate;
    }
    ++calls_[GateIndex(id)];
    ++total_calls_;
    return Status::kOk;
  }

  uint32_t count() const { return static_cast<uint32_t>(present_.count()); }
  uint32_t CountByCategory(GateCategory category) const;
  uint64_t total_calls() const { return total_calls_; }
  const GateSet& present() const { return present_; }

  // The gates in this table, in census order.
  std::vector<GateInfo> gates() const;

 private:
  GateSet present_;
  std::array<uint64_t, kGateCount> calls_{};
  uint64_t total_calls_ = 0;
};

}  // namespace multics

#endif  // SRC_CORE_GATE_H_
