// Layer 1 of the partitioned file system (the paper's first partitioning
// suggestion): "the bottom layer might implement a file system in which all
// segments were named by system generated unique identifiers." The segment
// store knows nothing of pathnames or directories-as-namespaces; it creates,
// activates, grows, and deletes segments identified by UID, maintains their
// branches, and enforces directory quotas by walking branch parent links.

#ifndef SRC_FS_SEGMENT_STORE_H_
#define SRC_FS_SEGMENT_STORE_H_

#include <functional>
#include <unordered_map>

#include "src/fs/branch.h"
#include "src/hw/machine.h"
#include "src/mem/active_segment.h"
#include "src/mem/page_control.h"

namespace multics {

class SegmentStore {
 public:
  SegmentStore(Machine* machine, ActiveSegmentTable* ast, PagingDevice* disk);

  // Page control is constructed after the store (it needs the same devices);
  // attach it before any activation.
  void AttachPageControl(PageControl* page_control) { page_control_ = page_control; }

  // Creates a branch (and nothing else: length 0, no storage yet).
  Result<Uid> Create(const SegmentAttributes& attrs, bool is_directory, Uid parent);

  // Destroys the segment: deactivates if needed, frees disk pages, uncharges
  // quota, removes the branch.
  Status Delete(Uid uid);

  Result<Branch*> Get(Uid uid);
  bool Exists(Uid uid) const { return branches_.contains(uid); }

  // Activation binds the segment into the AST (idempotent). Initiation
  // references are tracked separately with AddRef/DropRef: a referenced
  // segment may still be *deactivated* (its pages flushed, its AST slot
  // reclaimed, connected SDWs invalidated via the hook) — the next touch
  // takes a segment fault and reactivates it, exactly as Multics did.
  Result<ActiveSegment*> Activate(Uid uid, bool wired = false);

  void AddRef(Uid uid) { ++refs_[uid]; }
  Status DropRef(Uid uid);
  uint32_t RefCount(Uid uid) const;

  // Invoked just before a segment's AST entry is torn down, so the kernel
  // can invalidate descriptor-segment entries pointing at its page table.
  void SetDeactivateHook(std::function<void(Uid)> hook) { deactivate_hook_ = std::move(hook); }

  // Forces deactivation (flush + AST teardown + hook). Testing/trim entry.
  Status Deactivate(Uid uid);

  // Grows or shrinks the segment, charging / refunding quota against the
  // nearest ancestor directory that has one.
  Status SetLength(Uid uid, uint32_t pages);

  // Flushes and deactivates every zero-reference active segment (shutdown).
  Status DeactivateAll();

  uint32_t active_count() const { return ast_->size(); }
  uint64_t segment_count() const { return branches_.size(); }

  // Whole-catalog iteration, for the salvager and the backup daemon.
  template <typename Fn>
  void ForEachBranch(Fn&& fn) {
    for (auto& [uid, branch] : branches_) {
      fn(branch);
    }
  }

  ActiveSegmentTable* ast() const { return ast_; }
  Machine* machine() const { return machine_; }

  // The catalog: every branch, the initiation references and the UID
  // counter. This is the store's part of a kernel snapshot, and on its own
  // it is the pre-fault baseline CrashRestart diffs branches against.
  struct State {
    std::unordered_map<Uid, Branch> branches;
    std::unordered_map<Uid, uint32_t> refs;
    Uid next_uid = 1;
  };
  State SaveState() const { return State{branches_, refs_, next_uid_}; }
  void RestoreState(const State& state) {
    branches_ = state.branches;
    refs_ = state.refs;
    next_uid_ = state.next_uid;
  }

 private:
  Status QuotaCharge(Uid parent, int64_t delta_pages);
  Status DeactivateNow(Uid uid);  // Flush + drop from AST + refresh disk_home.
  Status EvictOneInactive();      // Make AST room.
  Status FreePageStorage(ActiveSegment* seg, PageNo page);

  Machine* machine_;
  ActiveSegmentTable* ast_;
  PagingDevice* disk_;
  PageControl* page_control_ = nullptr;

  std::unordered_map<Uid, Branch> branches_;
  std::unordered_map<Uid, uint32_t> refs_;
  std::function<void(Uid)> deactivate_hook_;
  Uid next_uid_ = 1;
};

}  // namespace multics

#endif  // SRC_FS_SEGMENT_STORE_H_
