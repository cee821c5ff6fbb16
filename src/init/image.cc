#include "src/init/image.h"

namespace multics {
namespace {

// Loader-side raw page write: the one trivial privileged copy loop.
Status PokeWord(Kernel& kernel, Uid uid, WordOffset offset, Word value) {
  MX_ASSIGN_OR_RETURN(ActiveSegment * seg, kernel.store().Activate(uid));
  if (PageOf(offset) >= seg->pages) {
    return Status::kOutOfRange;
  }
  MX_RETURN_IF_ERROR(
      kernel.page_control().EnsureResident(seg, PageOf(offset), AccessMode::kWrite));
  PageTableEntry& pte = seg->page_table.entries[PageOf(offset)];
  pte.modified = true;
  kernel.machine().core().WriteWord(pte.frame, PageOffsetOf(offset), value);
  return Status::kOk;
}

Status DumpDirectory(Kernel& donor, Uid dir_uid, const std::string& path, SystemImage* image) {
  auto entries = donor.hierarchy().List(dir_uid);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const DirEntry& entry : entries.value()) {
    const std::string child_path = (path == ">" ? ">" : path + ">") + entry.name;
    ImageRecord record;
    record.path = child_path;
    if (entry.is_link) {
      record.is_link = true;
      record.link_target = entry.link_target;
      image->records.push_back(std::move(record));
      continue;
    }
    MX_ASSIGN_OR_RETURN(Branch * branch, donor.store().Get(entry.uid));
    record.is_directory = branch->is_directory;
    record.attrs.max_pages = branch->max_pages;
    record.attrs.acl = branch->acl;
    record.attrs.label = branch->label;
    record.attrs.brackets = branch->brackets;
    record.attrs.gate = branch->gate;
    record.attrs.gate_entries = branch->gate_entries;
    record.attrs.author = branch->author;
    record.quota_pages = branch->quota_pages;

    if (!branch->is_directory) {
      ActiveSegment* seg = donor.store().ast()->Find(entry.uid);
      record.pages = seg != nullptr ? seg->pages : branch->pages;
      for (WordOffset offset = 0; offset < record.pages * kPageWords; ++offset) {
        auto word = donor.DumpReadWord(entry.uid, offset);
        if (word.ok() && word.value() != 0) {
          record.content.emplace_back(offset, word.value());
        }
      }
    }
    bool is_directory = record.is_directory;
    image->records.push_back(std::move(record));
    if (is_directory) {
      MX_RETURN_IF_ERROR(DumpDirectory(donor, entry.uid, child_path, image));
    }
  }
  return Status::kOk;
}

}  // namespace

size_t SystemImage::ApproxBytes() const {
  size_t bytes = 0;
  for (const ImageRecord& record : records) {
    bytes += record.path.size() + 64 + record.content.size() * 12;
  }
  bytes += users.size() * 64;
  return bytes;
}

uint32_t SystemImage::segment_count() const {
  uint32_t n = 0;
  for (const ImageRecord& record : records) {
    if (!record.is_directory && !record.is_link) {
      ++n;
    }
  }
  return n;
}

uint32_t SystemImage::directory_count() const {
  uint32_t n = 0;
  for (const ImageRecord& record : records) {
    if (record.is_directory) {
      ++n;
    }
  }
  return n;
}

Result<SystemImage> MemoryImage::Generate(Kernel& donor) {
  SystemImage image;
  MX_RETURN_IF_ERROR(DumpDirectory(donor, donor.hierarchy().root(), ">", &image));
  donor.ForEachUser([&](const std::string& person, const std::string& project,
                        const std::string& password, const MlsLabel& clearance) {
    image.users.push_back(UserSpec{person, project, password, clearance});
  });
  return image;
}

Result<InitReport> MemoryImage::Load(Kernel& fresh, const SystemImage& image) {
  InitReport report;
  Machine& machine = fresh.machine();
  auto step = [&](const std::string& name, Cycles cost) {
    machine.Charge(cost, ChargeKind::kRing0Init);
    ++report.privileged_steps;
    report.ring0_cycles += cost;
    report.step_names.push_back(name);
  };

  // One mechanism: walk the records, manifest each. The loader has no
  // per-subsystem logic — the image already encodes the initialized state.
  step("load_image", 300);
  Hierarchy& hierarchy = fresh.hierarchy();
  for (const ImageRecord& record : image.records) {
    auto path = Path::Parse(record.path);
    if (!path.ok()) {
      return path.status();
    }
    auto parent = hierarchy.ResolvePath(path->Parent());
    if (!parent.ok()) {
      return parent.status();
    }
    const std::string leaf = path->Leaf();
    if (hierarchy.Lookup(parent.value(), leaf).ok()) {
      continue;  // Pre-existing (e.g. the kernel's own >system).
    }
    if (record.is_link) {
      MX_RETURN_IF_ERROR(hierarchy.CreateLink(parent.value(), leaf, record.link_target));
      continue;
    }
    if (record.is_directory) {
      MX_ASSIGN_OR_RETURN(Uid uid, hierarchy.CreateDirectory(parent.value(), leaf,
                                                             record.attrs,
                                                             record.quota_pages));
      (void)uid;
      continue;
    }
    MX_ASSIGN_OR_RETURN(Uid uid, hierarchy.CreateSegment(parent.value(), leaf, record.attrs));
    if (record.pages > 0) {
      MX_RETURN_IF_ERROR(fresh.store().SetLength(uid, record.pages));
      for (const auto& [offset, word] : record.content) {
        MX_RETURN_IF_ERROR(PokeWord(fresh, uid, offset, word));
      }
      // The copy loop's cost is data movement, not mechanism.
      machine.Charge(record.content.size(), ChargeKind::kImageCopy);
    }
  }

  for (const UserSpec& user : image.users) {
    fresh.RegisterUser(user.person, user.project, user.password, user.max_clearance);
  }

  Principal initializer{"Initializer", "SysDaemon", "z"};
  auto init = fresh.BootstrapProcess("initializer", initializer, MlsLabel::SystemHigh());
  if (!init.ok()) {
    return init.status();
  }
  init.value()->set_ring(kRingSupervisor);
  report.init_process = init.value();

  step("connect_devices", 200);
  step("announce_ready", 100);
  return report;
}

}  // namespace multics
