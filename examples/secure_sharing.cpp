// Secure sharing: the paper's reason Multics is worth certifying — "high
// bandwidth direct sharing of information among computations" under kernel
// control. Jones shares a report with her project read-only; a student is
// shut out by the ACL; the Mitre lattice stops even permitted principals
// from moving information downward.
//
// Run: ./build/examples/secure_sharing

#include <cstdio>

#include "src/init/bootstrap.h"

using namespace multics;

namespace {

void Show(const char* who, const char* what, Status status) {
  std::printf("  %-28s %-24s -> %s\n", who, what, StatusName(status).data());
}

}  // namespace

int main() {
  KernelParams params;
  params.config = KernelConfiguration::Kernelized6180();
  Kernel kernel(params);
  BootstrapOptions options;
  options.users = DefaultUsers();
  CHECK(Bootstrap::Run(kernel, options).ok());

  // Three principals with three clearances.
  auto jones = kernel.BootstrapProcess("jones", Principal{"Jones", "Faculty", "a"},
                                       MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});
  auto smith = kernel.BootstrapProcess("smith", Principal{"Smith", "Faculty", "a"},
                                       MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});
  auto doe = kernel.BootstrapProcess("doe", Principal{"Doe", "Students", "a"},
                                     MlsLabel::SystemLow());
  CHECK(jones.ok() && smith.ok() && doe.ok());

  // Jones writes a report in her home directory and puts Smith on the ACL
  // read-only. The directory ACL lets anyone *try* to initiate.
  auto root = kernel.RootDir(*jones.value());
  auto udd = kernel.Initiate(*jones.value(), root.value(), "udd");
  auto faculty = kernel.Initiate(*jones.value(), udd->segno, "Faculty");
  auto home = kernel.Initiate(*jones.value(), faculty->segno, "Jones");
  CHECK(home.ok());
  // (Bootstrap already gave the home directory a status-for-everyone ACL, so
  // colleagues can look entries up; only Jones can modify or append.)

  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite});
  attrs.acl.Set(AclEntry{"Smith", "Faculty", "*", kModeRead});
  attrs.acl.Set(AclEntry{"*", "*", "*", kModeNull});
  CHECK(kernel.FsCreateSegment(*jones.value(), home->segno, "report", attrs).ok());
  auto report = kernel.Initiate(*jones.value(), home->segno, "report");
  CHECK(report.ok());
  CHECK(kernel.SegSetLength(*jones.value(), report->segno, 1) == Status::kOk);
  CHECK(kernel.RunAs(*jones.value()) == Status::kOk);
  CHECK(kernel.cpu().Write(report->segno, 0, 0xFAC75) == Status::kOk);
  std::printf("Jones wrote >udd>Faculty>Jones>report (label %s)\n\n",
              kernel.FsStatus(*jones.value(), home->segno, "report")->label.c_str());

  std::printf("Access attempts (every decision passes the reference monitor):\n");

  // Smith (same project, same clearance): the ACL grants read; the lattice
  // agrees (secret:{1} may observe secret:{1}). Direct sharing: the very
  // same physical page, no copy.
  {
    auto s_root = kernel.RootDir(*smith.value());
    auto s_udd = kernel.Initiate(*smith.value(), s_root.value(), "udd");
    auto s_fac = kernel.Initiate(*smith.value(), s_udd->segno, "Faculty");
    auto s_home = kernel.Initiate(*smith.value(), s_fac->segno, "Jones");
    CHECK(s_home.ok());
    auto s_report = kernel.Initiate(*smith.value(), s_home->segno, "report");
    Show("Smith.Faculty (secret:{1})", "initiate report", s_report.status());
    CHECK(kernel.RunAs(*smith.value()) == Status::kOk);
    auto read = kernel.cpu().Read(s_report->segno, 0);
    Show("Smith.Faculty", "read word 0", read.status());
    CHECK(read.value() == 0xFAC75);
    std::printf("      (read the same page Jones wrote: direct sharing, one copy)\n");
    Show("Smith.Faculty", "write word 0",
         kernel.cpu().Write(s_report->segno, 0, 0xBAD));
  }

  // Doe (student, unclassified): the ACL already says no; even if it said
  // yes, simple security would (secret:{1} is not observable from syslow).
  {
    auto d_root = kernel.RootDir(*doe.value());
    auto d_udd = kernel.Initiate(*doe.value(), d_root.value(), "udd");
    auto d_fac = kernel.Initiate(*doe.value(), d_udd->segno, "Faculty");
    auto d_home = kernel.Initiate(*doe.value(), d_fac->segno, "Jones");
    if (d_home.ok()) {
      auto d_report = kernel.Initiate(*doe.value(), d_home->segno, "report");
      Show("Doe.Students (unclassified)", "initiate report", d_report.status());
    } else {
      Show("Doe.Students (unclassified)", "walk into Jones' home", d_home.status());
    }
  }

  // Even Jones cannot leak downward: writing her secret data into a
  // student-visible (unclassified) segment is a *-property violation.
  {
    auto d_root = kernel.RootDir(*doe.value());
    SegmentAttributes open_attrs;
    open_attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
    CHECK(kernel.FsCreateSegment(*doe.value(), d_root.value(), "dropbox", open_attrs).ok());
    auto j_root = kernel.RootDir(*jones.value());
    auto dropbox = kernel.Initiate(*jones.value(), j_root.value(), "dropbox");
    CHECK(dropbox.ok());
    CHECK(kernel.SegSetLength(*doe.value(),
                              kernel.Initiate(*doe.value(), d_root.value(), "dropbox")->segno,
                              1) == Status::kOk);
    CHECK(kernel.RunAs(*jones.value()) == Status::kOk);
    Show("Jones.Faculty (secret:{1})", "write unclass dropbox",
         kernel.cpu().Write(dropbox->segno, 0, 0x5EC2E7));
    std::printf("      (the *-property: no write down, even for the owner of the data)\n");
  }

  std::printf("\nAudit trail: %llu grants, %llu denials recorded by the kernel\n",
              static_cast<unsigned long long>(kernel.audit().grants()),
              static_cast<unsigned long long>(kernel.audit().denials()));
  for (const AuditRecord& record : kernel.audit().recent()) {
    if (record.outcome != Status::kOk) {
      std::printf("  t=%-8llu %-24s %-16s uid=%llu %s\n",
                  static_cast<unsigned long long>(record.time),
                  record.principal.ToString().c_str(), SpanName(record.operation),
                  static_cast<unsigned long long>(record.uid),
                  StatusName(record.outcome).data());
    }
  }
  return 0;
}
