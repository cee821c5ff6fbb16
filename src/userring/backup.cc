#include "src/userring/backup.h"

namespace multics {

size_t DumpArchive::ApproxBytes() const {
  size_t bytes = 0;
  for (const DumpRecord& record : records) {
    bytes += record.path.size() + 96 + record.words.size() * 12;
  }
  return bytes;
}

Status BackupDaemon::DumpDirectory(Uid dir_uid, const std::string& path, bool incremental,
                                   DumpArchive* archive) {
  auto entries = kernel_->hierarchy().List(dir_uid);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const DirEntry& entry : entries.value()) {
    const std::string child_path = (path == ">" ? ">" : path + ">") + entry.name;
    if (entry.is_link) {
      DumpRecord record;
      record.path = child_path;
      record.is_link = true;
      record.link_target = entry.link_target;
      archive->records.push_back(std::move(record));
      continue;
    }
    auto branch = kernel_->store().Get(entry.uid);
    if (!branch.ok()) {
      continue;  // The salvager's problem, not ours.
    }
    Branch* b = branch.value();
    const bool fresh = b->date_modified >= last_dump_ || b->date_created >= last_dump_;
    if (b->is_directory || !incremental || fresh) {
      DumpRecord record;
      record.path = child_path;
      record.is_directory = b->is_directory;
      record.attrs.max_pages = b->max_pages;
      record.attrs.acl = b->acl;
      record.attrs.label = b->label;
      record.attrs.brackets = b->brackets;
      record.attrs.gate = b->gate;
      record.attrs.gate_entries = b->gate_entries;
      record.attrs.author = b->author;
      record.quota_pages = b->quota_pages;
      record.date_modified = b->date_modified;
      if (!b->is_directory && (!incremental || fresh)) {
        ActiveSegment* seg = kernel_->store().ast()->Find(entry.uid);
        record.pages = seg != nullptr ? seg->pages : b->pages;
        for (WordOffset offset = 0; offset < record.pages * kPageWords; ++offset) {
          auto word = kernel_->DumpReadWord(entry.uid, offset);
          if (word.ok() && word.value() != 0) {
            record.words.emplace_back(offset, word.value());
          }
        }
        ++segments_dumped_;
      }
      archive->records.push_back(std::move(record));
    }
    if (b->is_directory) {
      MX_RETURN_IF_ERROR(DumpDirectory(entry.uid, child_path, incremental, archive));
    }
  }
  return Status::kOk;
}

Result<DumpArchive> BackupDaemon::Dump(bool incremental) {
  DumpArchive archive;
  archive.incremental = incremental;
  archive.taken_at = kernel_->machine().clock().now();
  MX_RETURN_IF_ERROR(DumpDirectory(kernel_->hierarchy().root(), ">", incremental, &archive));
  last_dump_ = archive.taken_at;
  // A dump costs real time: reading is charged by the paging machinery, and
  // writing the tape (or network vault) is charged here per record.
  kernel_->machine().Charge(archive.records.size() * 50, ChargeKind::kBackupIo);
  return archive;
}

Status BackupDaemon::WriteContents(Uid uid, const DumpRecord& record) {
  if (record.pages > 0) {
    MX_RETURN_IF_ERROR(kernel_->store().SetLength(uid, record.pages));
  }
  for (const auto& [offset, word] : record.words) {
    MX_ASSIGN_OR_RETURN(ActiveSegment * seg, kernel_->store().Activate(uid));
    if (PageOf(offset) >= seg->pages) {
      return Status::kOutOfRange;
    }
    MX_RETURN_IF_ERROR(
        kernel_->page_control().EnsureResident(seg, PageOf(offset), AccessMode::kWrite));
    PageTableEntry& pte = seg->page_table.entries[PageOf(offset)];
    pte.modified = true;
    kernel_->machine().core().WriteWord(pte.frame, PageOffsetOf(offset), word);
  }
  return Status::kOk;
}

Status BackupDaemon::RestoreRecord(const DumpRecord& record, bool overwrite_data,
                                   bool* created) {
  *created = false;
  Hierarchy& hierarchy = kernel_->hierarchy();
  auto path = Path::Parse(record.path);
  if (!path.ok()) {
    return path.status();
  }
  auto parent = hierarchy.ResolvePath(path->Parent());
  if (!parent.ok()) {
    return Status::kNoSuchDirectory;  // Parents restore first (pre-order).
  }
  auto existing = hierarchy.Lookup(parent.value(), path->Leaf());
  if (existing.ok()) {
    if (!record.is_link && !record.is_directory && overwrite_data) {
      MX_RETURN_IF_ERROR(WriteContents(existing->uid, record));
      *created = true;
    }
    return Status::kOk;
  }
  if (record.is_link) {
    MX_RETURN_IF_ERROR(hierarchy.CreateLink(parent.value(), path->Leaf(), record.link_target));
    *created = true;
    return Status::kOk;
  }
  if (record.is_directory) {
    MX_ASSIGN_OR_RETURN(Uid uid, hierarchy.CreateDirectory(parent.value(), path->Leaf(),
                                                           record.attrs, record.quota_pages));
    (void)uid;
    *created = true;
    return Status::kOk;
  }
  MX_ASSIGN_OR_RETURN(Uid uid,
                      hierarchy.CreateSegment(parent.value(), path->Leaf(), record.attrs));
  MX_RETURN_IF_ERROR(WriteContents(uid, record));
  *created = true;
  return Status::kOk;
}

Result<uint32_t> BackupDaemon::Restore(const DumpArchive& archive, bool overwrite_data) {
  uint32_t restored = 0;
  for (const DumpRecord& record : archive.records) {
    bool created = false;
    Status status = RestoreRecord(record, overwrite_data, &created);
    if (status != Status::kOk) {
      return status;
    }
    if (created) {
      ++restored;
    }
  }
  kernel_->machine().Charge(archive.records.size() * 50, ChargeKind::kBackupIo);
  return restored;
}

Status BackupDaemon::RetrieveSegment(const DumpArchive& archive, const std::string& path) {
  for (const DumpRecord& record : archive.records) {
    if (record.path != path || record.is_directory || record.is_link) {
      continue;
    }
    bool created = false;
    return RestoreRecord(record, /*overwrite_data=*/true, &created);
  }
  return Status::kNotFound;
}

}  // namespace multics
