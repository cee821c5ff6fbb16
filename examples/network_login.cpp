// A remote terminal session, the kernelized way: the terminal reaches the
// system over the network attachment (the only external I/O path), and login
// is handled by the de-privileged answering service — a ring-1 process whose
// password registry is just an ACL-protected segment. No tty driver, no
// login gate, no authenticator inside the security kernel.
//
// Run: ./build/examples/network_login

#include <cstdio>

#include "src/init/bootstrap.h"
#include "src/userring/answering_service.h"
#include "src/userring/initiator.h"

using namespace multics;

int main() {
  KernelParams params;
  params.config = KernelConfiguration::Kernelized6180();
  Kernel kernel(params);
  BootstrapOptions options;
  options.users = DefaultUsers();
  CHECK(Bootstrap::Run(kernel, options).ok());

  std::printf("Kernel external-I/O gates: device-io=%u network=%u; 'login' gate exists: %s\n",
              kernel.gates().CountByCategory(GateCategory::kDeviceIo),
              kernel.gates().CountByCategory(GateCategory::kNetwork),
              kernel.gates().Has(GateId::kLogin) ? "yes" : "no");

  // The answering service sets itself up in the user ring and registers the
  // user population in its own protected segment.
  auto service = AnsweringService::Create(&kernel);
  CHECK(service.ok());
  for (const UserSpec& user : DefaultUsers()) {
    CHECK((*service)->RegisterUser(user.person, user.project, user.password,
                                   user.max_clearance) == Status::kOk);
  }
  std::printf("Answering service up (ring-1 process, pwd segment segno %u)\n\n",
              (*service)->password_segno());

  // A remote terminal dials in over the network.
  Process& svc = *(*service)->service_process();
  auto conn = kernel.NetOpen(svc, "tty:remote-teletype-7");
  CHECK(conn.ok());
  std::vector<std::string> terminal_screen;
  kernel.network().SetRemoteSink(conn.value(), [&](const std::string& line) {
    terminal_screen.push_back(line);
    std::printf("  [terminal] %s", line.c_str());
  });

  auto say = [&](const std::string& line) {
    CHECK(kernel.NetWrite(svc, conn.value(), line) == Status::kOk);
    kernel.machine().events().RunUntilIdle();
  };
  auto type = [&](const std::string& line) {
    std::printf("  [user types] %s\n", line.c_str());
    CHECK(kernel.network().InjectFromRemote(conn.value(), line) == Status::kOk);
    kernel.machine().events().RunUntilIdle();
    auto got = kernel.NetRead(svc, conn.value());
    CHECK(got.ok());
    return got.value();
  };

  say("Multics 28-10a: load = 12.0 out of 100.0 units\n");
  std::string login_line = type("login Jones Faculty j0nespw secret:{1}");

  // The answering service parses and authenticates (all user-ring code).
  auto bad = (*service)->Login("Jones", "Faculty", "wrong-password",
                               MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});
  std::printf("  (first attempt with wrong password -> %s)\n", StatusName(bad.status()).data());
  auto session = (*service)->Login("Jones", "Faculty", "j0nespw",
                                   MlsLabel{SensitivityLevel::kSecret, CategorySet::Of({1})});
  CHECK(session.ok());
  say("Jones.Faculty logged in 07/06/26 1035.7 est Mon from network host\n");
  Process& jones = *session.value();
  std::printf("  -> process '%s' created for %s at %s (by the ring-1 service, "
              "via the ordinary proc_create gate)\n\n",
              jones.name().c_str(), jones.principal().ToString().c_str(),
              jones.clearance().ToString().c_str());

  // The logged-in user does real work over the same connection.
  std::string command = type("create_segment memo");
  UserInitiator initiator(&kernel, &jones);
  auto home = initiator.InitiateDirPath(">udd>Faculty>Jones");
  CHECK(home.ok());
  SegmentAttributes attrs;
  attrs.acl.Set(AclEntry{"Jones", "Faculty", "*", kModeRead | kModeWrite});
  CHECK(kernel.FsCreateSegment(jones, home.value(), "memo", attrs).ok());
  say("segment >udd>Faculty>Jones>memo created\n");

  std::string burst_note = type("status");
  // A burst of terminal traffic lands while we are busy: the VM-backed
  // buffer absorbs all of it.
  for (int i = 0; i < 300; ++i) {
    CHECK(kernel.network().InjectFromRemote(conn.value(), "line " + std::to_string(i)) ==
          Status::kOk);
  }
  kernel.machine().events().RunUntilIdle();
  uint64_t queued = kernel.NetStatus(svc, conn.value()).value_or(0);
  say("burst of 300 lines queued without loss: " + std::to_string(queued) +
      " waiting, 0 overwritten\n");
  std::printf("\nNetwork totals: %llu packets in, %llu lost\n",
              static_cast<unsigned long long>(kernel.network().packets_in()),
              static_cast<unsigned long long>(kernel.network().total_lost()));
  std::printf("Failed/successful logins at the service: %llu/%llu\n",
              static_cast<unsigned long long>((*service)->failed_logins()),
              static_cast<unsigned long long>((*service)->successful_logins()));
  return 0;
}
