// The name census: every gate, trace event, causal span and audit operation
// name is one row of one table, so a misspelt name is a compile error rather
// than a new, silently empty series. (Cycle charges are ChargeKind,
// src/hw/charge.h; counters are MeterIds their owners intern, meter.h.) The
// gate rows live here, below src/core, because the meter records gate spans
// and may include only src/meter and src/base; gate.h turns the same rows
// into GateId, so there is one list of gate names.

#ifndef SRC_METER_SPAN_CENSUS_H_
#define SRC_METER_SPAN_CENSUS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace multics {

// The gate census (experiment E1's unit of measure): the single source of
// truth for the supervisor's user-callable surface, one row per gate,
// X(enumerator, "name", GateCategory, GatePresence), in census order. It
// generates GateId (src/core/gate.h), so a gate prologue can only name a
// census gate, and the static certifier (src/audit_static) re-derives each
// configuration's surface from it to verify the live table. mx_lint checks
// that some gate body in src/core names every row as GateId::kX.
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

// The span census: the gate rows first (so SpanId and GateId share their
// indices), then every other span and event name, X(enumerator, "name"),
// grouped by the layer that records it. A gate span's distribution is
// "gate/<name>", any other span's "<name>". The trace events kIpcBlock and
// kIpcWakeup are their gates' rows.
#define MX_SPAN_CENSUS(X)                                                        \
  MX_GATE_CENSUS(X)                                                              \
  /* src/hw: faults and ring crossings. */                                       \
  X(kParityFault, "parity_fault")                                                \
  X(kSegmentFault, "segment_fault")                                              \
  X(kPageFault, "page_fault")                                                    \
  X(kCallCross, "call_cross")                                                    \
  X(kCallOutward, "call_outward")                                                \
  X(kReturnCross, "return_cross")                                                \
  /* src/mem: page control. */                                                   \
  X(kPageFaultService, "page/fault_service")                                     \
  X(kFetchZero, "fetch_zero")                                                    \
  X(kFetchBulk, "fetch_bulk")                                                    \
  X(kFetchDisk, "fetch_disk")                                                    \
  X(kEvictSync, "evict_sync")                                                    \
  X(kEvictAsync, "evict_async")                                                  \
  X(kCascade, "cascade")                                                         \
  X(kCascadeAsync, "cascade_async")                                              \
  X(kBulkToDisk, "bulk_to_disk")                                                 \
  X(kBulkToDiskAsync, "bulk_to_disk_async")                                      \
  X(kReclaimCore, "reclaim_core")                                                \
  X(kReclaimBulk, "reclaim_bulk")                                                \
  X(kFreeCoreDaemon, "free_core_daemon")                                         \
  X(kFreeBulkDaemon, "free_bulk_daemon")                                         \
  /* src/net and src/proc. */                                                    \
  X(kNetDeliver, "net/deliver")                                                  \
  X(kPacketIn, "packet_in")                                                      \
  X(kPacketOut, "packet_out")                                                    \
  X(kDispatch, "dispatch")                                                       \
  X(kInterrupt, "interrupt")                                                     \
  /* The answering service's failed login (an audit operation, src/userring). */ \
  X(kUserRingLogin, "user_ring_login")                                           \
  /* bench_cost_of_security's measured window. */                                \
  X(kSession, "session")                                                         \
  X(kSessionRound, "session_round")

enum class SpanId : uint8_t {
#define MX_SPAN_ENUMERATOR(id, name, ...) id,
  MX_SPAN_CENSUS(MX_SPAN_ENUMERATOR)
#undef MX_SPAN_ENUMERATOR
};

#define MX_SPAN_ONE(id, name, ...) +1
inline constexpr size_t kSpanCount = 0 MX_SPAN_CENSUS(MX_SPAN_ONE);
inline constexpr size_t kGateSpanCount = 0 MX_GATE_CENSUS(MX_SPAN_ONE);
#undef MX_SPAN_ONE

namespace span_internal {
inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
#define MX_SPAN_NAME(id, name, ...) name,
    MX_SPAN_CENSUS(MX_SPAN_NAME)
#undef MX_SPAN_NAME
};
consteval bool NamesUnique() {
  for (size_t i = 0; i < kSpanNames.size(); ++i) {
    for (size_t j = i + 1; j < kSpanNames.size(); ++j) {
      if (std::string_view(kSpanNames[i]) == std::string_view(kSpanNames[j])) {
        return false;
      }
    }
  }
  return true;
}
static_assert(NamesUnique(), "MX_SPAN_CENSUS rows must have unique names");
}  // namespace span_internal

constexpr size_t SpanIndex(SpanId id) { return static_cast<size_t>(id); }
constexpr SpanId SpanAt(size_t index) { return static_cast<SpanId>(index); }
constexpr const char* SpanName(SpanId id) { return span_internal::kSpanNames[SpanIndex(id)]; }
constexpr bool IsGateSpan(SpanId id) { return SpanIndex(id) < kGateSpanCount; }

}  // namespace multics

#endif  // SRC_METER_SPAN_CENSUS_H_
