// Layer 2 of the partitioned file system: the naming hierarchy built on top
// of the UID-named segment store. Directories map entrynames (and links) to
// UIDs; a branch's attributes live with its UID in the store. The directory
// structures themselves stay protected inside the supervisor — the paper is
// explicit that removing pathname *resolution* from the kernel (experiment
// E3) does not expose the hierarchy itself.

#ifndef SRC_FS_HIERARCHY_H_
#define SRC_FS_HIERARCHY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/fs/pathname.h"
#include "src/fs/segment_store.h"

namespace multics {

struct DirEntry {
  std::string name;
  Uid uid = kInvalidUid;     // Target branch when not a link.
  bool is_link = false;
  std::string link_target;   // Absolute pathname text when is_link.
};

class Directory {
 public:
  Status Add(DirEntry entry);
  Status Remove(const std::string& name);
  const DirEntry* Find(const std::string& name) const;

  // Number of entry names referring to `uid`.
  uint32_t NameCountFor(Uid uid) const;

  bool empty() const { return entries_.empty(); }
  const std::vector<DirEntry>& entries() const { return entries_; }

 private:
  std::vector<DirEntry> entries_;
};

class Hierarchy {
 public:
  // The salvager repairs private structures directly.
  friend class Salvager;

  explicit Hierarchy(SegmentStore* store);

  // Creates the root directory. Must be called exactly once.
  Status Init();
  Uid root() const { return root_; }

  // Name-space operations. These are raw mechanisms; access control is the
  // reference monitor's job at the gate layer above.
  Result<Uid> CreateSegment(Uid dir_uid, const std::string& name,
                            const SegmentAttributes& attrs);
  Result<Uid> CreateDirectory(Uid dir_uid, const std::string& name,
                              const SegmentAttributes& attrs, uint32_t quota_pages = 0);
  Status CreateLink(Uid dir_uid, const std::string& name, const std::string& target_path);

  // Deletes the entry `name`: removes a link, deletes a segment, or deletes
  // an empty directory. A branch with remaining additional names only loses
  // this name.
  Status DeleteEntry(Uid dir_uid, const std::string& name);

  // Additional-name management (Multics chname).
  Status AddName(Uid dir_uid, const std::string& existing, const std::string& additional);
  Status Rename(Uid dir_uid, const std::string& from, const std::string& to);

  // Looks `name` up in one directory; does not follow links.
  Result<DirEntry> Lookup(Uid dir_uid, const std::string& name) const;

  // Full pathname resolution with link following. This is the algorithm the
  // kernelized configuration evicts from ring 0 (the user-ring initiator
  // re-implements it by iterating the per-directory kernel interface).
  Result<Uid> ResolvePath(const Path& path) const;

  Result<std::vector<DirEntry>> List(Uid dir_uid) const;

  // Raw directory access, bypassing all checks: for the salvager, the
  // backup daemon's repair path, and fault-injection tests. Not a user path.
  Result<Directory*> RawDirectory(Uid dir_uid) { return GetDir(dir_uid); }

  // Reverse lookup: the (first) pathname of a branch, by walking parents.
  Result<Path> PathOf(Uid uid) const;

  SegmentStore* store() const { return store_; }

  // The directories' contents, saved and restored with the kernel (the
  // branches they name are the store's).
  struct State {
    Uid root = kInvalidUid;
    std::unordered_map<Uid, Directory> directories;
  };
  State SaveState() const { return State{root_, directories_}; }
  void RestoreState(const State& state) {
    root_ = state.root;
    directories_ = state.directories;
  }

 private:
  Result<Directory*> GetDir(Uid dir_uid);
  Result<const Directory*> GetDir(Uid dir_uid) const;
  Result<Uid> ResolveWithDepth(const Path& path, int depth) const;

  SegmentStore* store_;
  Uid root_ = kInvalidUid;
  std::unordered_map<Uid, Directory> directories_;
};

}  // namespace multics

#endif  // SRC_FS_HIERARCHY_H_
