#include "src/init/bootstrap.h"

#include "src/link/object_format.h"

namespace multics {
namespace {

SegmentAttributes LibraryAttrs(const Principal& author) {
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeExecute});
  attrs.acl.Set(AclEntry{author.person, author.project, "*",
                         kModeRead | kModeWrite | kModeExecute});
  attrs.author = author;
  return attrs;
}

SegmentAttributes DirAttrs(const Principal& author) {
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"*", "*", "*", kDirStatus});
  attrs.acl.Set(AclEntry{author.person, author.project, "*",
                         kDirStatus | kDirModify | kDirAppend});
  attrs.author = author;
  return attrs;
}

// Writes a built object image into a fresh segment under `dir_segno`.
Status InstallObjectSegment(Kernel& kernel, Process& init, SegNo dir_segno,
                            const std::string& name, const std::vector<Word>& image) {
  SegmentAttributes attrs = LibraryAttrs(init.principal());
  MX_ASSIGN_OR_RETURN(Uid uid, kernel.FsCreateSegment(init, dir_segno, name, attrs));
  (void)uid;
  MX_ASSIGN_OR_RETURN(InitiateResult result, kernel.Initiate(init, dir_segno, name));
  const uint32_t pages = PageOf(static_cast<WordOffset>(image.size())) + 1;
  MX_RETURN_IF_ERROR(kernel.SegSetLength(init, result.segno, pages));
  for (WordOffset i = 0; i < image.size(); ++i) {
    if (image[i] != 0) {
      MX_RETURN_IF_ERROR(kernel.KernelWriteWord(init, result.segno, i, image[i]));
    }
  }
  return kernel.Terminate(init, result.segno);
}

}  // namespace

std::vector<UserSpec> DefaultUsers() {
  return {
      {"Jones", "Faculty", "j0nespw", {SensitivityLevel::kSecret, CategorySet::Of({1})}},
      {"Smith", "Faculty", "sm1thpw", {SensitivityLevel::kConfidential, {}}},
      {"Doe", "Students", "d0epw", {SensitivityLevel::kUnclassified, {}}},
      {"Mitre", "Audit", "m1trepw",
       {SensitivityLevel::kTopSecret, CategorySet::Of({1, 2})}},
  };
}

Result<InitReport> Bootstrap::Run(Kernel& kernel, const BootstrapOptions& options) {
  InitReport report;
  Machine& machine = kernel.machine();
  auto step = [&](const std::string& name, Cycles cost) {
    machine.Charge(cost, ChargeKind::kRing0Init);
    ++report.privileged_steps;
    report.ring0_cycles += cost;
    report.step_names.push_back(name);
  };

  // The classic collection sequence: each of these was a separate privileged
  // program run in ring 0, brought in piecemeal from the boot tape.
  step("initialize_core_map", 800);
  step("initialize_ast", 600);
  step("initialize_page_control", 700);
  step("initialize_traffic_controller", 500);
  step("initialize_interrupt_masks", 300);
  step("initialize_root_directory", 400);

  Principal initializer{"Initializer", "SysDaemon", "z"};
  MX_ASSIGN_OR_RETURN(Process * init, kernel.BootstrapProcess("initializer", initializer,
                                                              MlsLabel::SystemHigh()));
  init->set_ring(kRingSupervisor);
  report.init_process = init;
  step("create_initializer_process", 400);

  MX_ASSIGN_OR_RETURN(SegNo root, kernel.RootDir(*init));

  // Directory skeleton.
  MX_ASSIGN_OR_RETURN(Uid udd_uid,
                      kernel.FsCreateDirectory(*init, root, "udd", DirAttrs(initializer)));
  (void)udd_uid;
  step("create_udd", 300);
  if (!kernel.hierarchy().Lookup(kernel.hierarchy().root(), "system").ok()) {
    MX_ASSIGN_OR_RETURN(Uid system_uid,
                        kernel.FsCreateDirectory(*init, root, "system", DirAttrs(initializer)));
    (void)system_uid;
  }
  step("create_system", 300);
  MX_ASSIGN_OR_RETURN(
      Uid lib_uid, kernel.FsCreateDirectory(*init, root, "system_library",
                                            DirAttrs(initializer)));
  (void)lib_uid;
  step("create_system_library", 300);

  // Per-project and per-user home directories, with quotas.
  MX_ASSIGN_OR_RETURN(InitiateResult udd, kernel.Initiate(*init, root, "udd"));
  for (const UserSpec& user : options.users) {
    if (!kernel.FsStatus(*init, udd.segno, user.project).ok()) {
      MX_ASSIGN_OR_RETURN(Uid project_uid,
                          kernel.FsCreateDirectory(*init, udd.segno, user.project,
                                                   DirAttrs(initializer),
                                                   options.project_quota_pages));
      (void)project_uid;
      step("create_project_" + user.project, 250);
    }
    MX_ASSIGN_OR_RETURN(InitiateResult project,
                        kernel.Initiate(*init, udd.segno, user.project));
    // Home directories are "upgraded" branches labeled at the user's maximum
    // clearance, so the user can both list and create entries there.
    SegmentAttributes home = DirAttrs(Principal{user.person, user.project, "a"});
    home.label = user.max_clearance;
    MX_ASSIGN_OR_RETURN(Uid home_uid, kernel.FsCreateDirectory(*init, project.segno,
                                                               user.person, home));
    (void)home_uid;
    (void)kernel.Terminate(*init, project.segno);
    kernel.RegisterUser(user.person, user.project, user.password, user.max_clearance);
    step("register_user_" + user.person, 200);
  }

  // The shared library: real object segments the linker experiments use.
  if (options.install_library) {
    MX_ASSIGN_OR_RETURN(InitiateResult lib, kernel.Initiate(*init, root, "system_library"));

    std::vector<Word> math_text(64);
    for (size_t i = 0; i < math_text.size(); ++i) {
      math_text[i] = 0x1000 + i;
    }
    std::vector<Word> math_image = ObjectBuilder()
                                       .SetText(std::move(math_text))
                                       .AddSymbol("sqrt", 10)
                                       .AddSymbol("sin", 20)
                                       .AddSymbol("cos", 30)
                                       .AddSymbol("exp", 40)
                                       .Build();
    MX_RETURN_IF_ERROR(InstallObjectSegment(kernel, *init, lib.segno, "math_", math_image));
    step("install_library_math_", 500);

    std::vector<Word> fmt_text(32);
    for (size_t i = 0; i < fmt_text.size(); ++i) {
      fmt_text[i] = 0x2000 + i;
    }
    std::vector<Word> fmt_image = ObjectBuilder()
                                      .SetText(std::move(fmt_text))
                                      .AddSymbol("format", 8)
                                      .AddSymbol("ioa_", 12)
                                      .AddLink("math_", "sqrt")
                                      .AddLink("math_", "exp")
                                      .Build();
    MX_RETURN_IF_ERROR(InstallObjectSegment(kernel, *init, lib.segno, "fmt_", fmt_image));
    step("install_library_fmt_", 500);
    (void)kernel.Terminate(*init, lib.segno);
  }

  step("attach_network", 400);
  step("initialize_io_channels", kernel.config().per_device_io ? 900 : 200);
  step("start_system_processes", 350);

  // Salvage pass: verify every directory entry points at a live branch.
  uint32_t entries_checked = 0;
  std::vector<Uid> stack{kernel.hierarchy().root()};
  while (!stack.empty()) {
    Uid dir = stack.back();
    stack.pop_back();
    auto entries = kernel.hierarchy().List(dir);
    if (!entries.ok()) {
      continue;
    }
    for (const DirEntry& entry : entries.value()) {
      ++entries_checked;
      if (entry.is_link) {
        continue;
      }
      auto branch = kernel.store().Get(entry.uid);
      if (!branch.ok()) {
        return Status::kSegmentDamaged;
      }
      if (branch.value()->is_directory) {
        stack.push_back(entry.uid);
      }
    }
  }
  step("salvage_file_system", 50 * entries_checked);
  step("announce_ready", 100);

  (void)kernel.Terminate(*init, udd.segno);
  return report;
}

}  // namespace multics
