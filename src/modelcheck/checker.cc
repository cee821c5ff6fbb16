#include "src/modelcheck/checker.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>

#include "src/meter/host_profile.h"

namespace multics::mc {

const char* MutationName(Mutation mutation) {
  switch (mutation) {
    case Mutation::kNone: return "none";
    case Mutation::kWidenSdwBrackets: return "widen-sdw-brackets";
    case Mutation::kSkipAclRevocation: return "skip-acl-revocation";
    case Mutation::kIgnoreMls: return "ignore-mls";
    case Mutation::kMissingAudit: return "missing-audit";
    case Mutation::kLockOrderInversion: return "lock-order-inversion";
    case Mutation::kTrustedUserProcess: return "trusted-user-process";
    case Mutation::kGateWithoutEntries: return "gate-without-entries";
  }
  return "unknown";
}

bool ParseMutation(const std::string& text, Mutation* out) {
  for (int i = 0; i < kMutationCount; ++i) {
    const Mutation m = static_cast<Mutation>(i);
    if (text == MutationName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

McConfig McConfig::Fast() {
  McConfig config;
  config.processes = 2;
  config.segments = 2;
  config.levels = 2;
  config.acl_variants = 2;
  config.bracket_variants = 1;
  config.usage_cap = 1;
  config.max_states = 20000;
  return config;
}

McConfig McConfig::Deep() {
  McConfig config;
  config.processes = 3;
  config.segments = 3;
  config.levels = 3;
  config.acl_variants = 3;
  config.bracket_variants = 2;
  config.with_remove_acl = true;
  config.with_seg_set_length = true;
  config.usage_cap = 1;
  // No fixed point: 4-6x more states per level. Depth keeps the certify run
  // to seconds; the state cap stops a deeper run.
  config.max_depth = 3;
  config.max_states = 50000;
  return config;
}

std::string Op::ToString() const {
  std::ostringstream out;
  out << "p" << proc << ":";
  switch (kind) {
    case OpKind::kInitiate: out << "initiate(s" << seg << ")"; break;
    case OpKind::kTerminate: out << "terminate(s" << seg << ")"; break;
    case OpKind::kSetAcl: out << "set_acl(s" << seg << ",V" << variant << ")"; break;
    case OpKind::kRemoveAcl: out << "remove_acl(s" << seg << ")"; break;
    case OpKind::kSetBrackets: out << "set_brackets(s" << seg << ",B" << variant << ")"; break;
    case OpKind::kSetLength: out << "set_length(s" << seg << "," << (variant + 1) << "pg)"; break;
  }
  return out.str();
}

std::vector<Op> BuildAlphabet(const McConfig& config) {
  const int per_segment = 2 + config.acl_variants + (config.with_remove_acl ? 1 : 0) +
                          config.bracket_variants + (config.with_seg_set_length ? 2 : 0);
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(std::max(0, config.processes * config.segments * per_segment)));
  for (int p = 0; p < config.processes; ++p) {
    for (int s = 0; s < config.segments; ++s) {
      ops.push_back({OpKind::kInitiate, p, s, 0});
      ops.push_back({OpKind::kTerminate, p, s, 0});
      for (int v = 0; v < config.acl_variants; ++v) {
        ops.push_back({OpKind::kSetAcl, p, s, v});
      }
      if (config.with_remove_acl) {
        ops.push_back({OpKind::kRemoveAcl, p, s, 0});
      }
      for (int v = 0; v < config.bracket_variants; ++v) {
        ops.push_back({OpKind::kSetBrackets, p, s, v});
      }
      if (config.with_seg_set_length) {
        for (int v = 0; v < 2; ++v) {
          ops.push_back({OpKind::kSetLength, p, s, v});
        }
      }
    }
  }
  return ops;
}

std::string McViolation::ToString() const {
  std::ostringstream out;
  out << "[" << invariant << "] " << detail << "\n";
  if (trace.empty()) {
    out << "  trace: (initial state — configuration violation, no gate call needed)\n";
  } else {
    out << "  trace:\n";
    for (size_t i = 0; i < trace.size(); ++i) {
      out << "    " << (i + 1) << ". " << trace[i] << "\n";
    }
  }
  return out.str();
}

std::string McResult::ToString() const {
  std::ostringstream out;
  out << "mx_mc: " << stats.states << " state(s), " << stats.transitions
      << " transition(s), max depth " << stats.max_depth << ", alphabet " << stats.alphabet
      << ", fixed point " << (stats.fixed_point ? "yes" : "no");
  if (stats.fuzz_ops > 0) {
    out << ", fuzz ops " << stats.fuzz_ops;
  }
  out << ": " << violations.size() << " violation(s)\n";
  for (const McViolation& v : violations) {
    out << v.ToString();
  }
  return out.str();
}

namespace {

// The label ladder the bounded configuration draws subjects and objects from.
// Index i%levels: p0/s0 unclassified, p1/s1 secret, p2/s2 confidential — the
// secret-vs-unclassified pair alone exercises read-up, write-down, and the
// blind-write asymmetry; confidential adds a middle rung in deep mode.
constexpr SensitivityLevel kLadder[3] = {SensitivityLevel::kUnclassified,
                                         SensitivityLevel::kSecret,
                                         SensitivityLevel::kConfidential};

MlsLabel LabelFor(int index, int levels) {
  const int span = std::clamp(levels, 1, 3);
  return MlsLabel{kLadder[index % span], CategorySet{}};
}

OracleLabel ToOracleLabel(const MlsLabel& label) {
  return OracleLabel{static_cast<int>(label.level), label.categories.bits()};
}

std::string SegName(int seg) { return std::string("s").append(std::to_string(seg)); }

AclEntry AclVariant(int variant) {
  AclEntry entry;  // "*.*.*"
  switch (variant) {
    case 0: entry.modes = kModeRead | kModeWrite; break;
    case 1: entry.modes = kModeRead; break;
    default: entry.modes = kModeNull; break;  // A null entry still matches first.
  }
  return entry;
}

OracleAclEntry OracleAclVariant(int variant) {
  OracleAclEntry entry;
  entry.modes = AclVariant(variant).modes;
  return entry;
}

RingBrackets BracketVariant(int variant) {
  // B0 widens read/gate inside validity; B1's write bracket sits below the
  // user ring, so a ring-4 caller setting it is a ring violation — a
  // deliberate always-denied probe for the audit-completeness check.
  return variant == 0 ? RingBrackets{4, 5, 5} : RingBrackets{2, 4, 5};
}

OracleBrackets ToOracleBrackets(const RingBrackets& b) {
  return OracleBrackets{b.write_limit, b.read_limit, b.gate_limit};
}

bool IsAccessDenial(Status status) {
  return status == Status::kAccessDenied || status == Status::kRingViolation ||
         status == Status::kMlsReadViolation || status == Status::kMlsWriteViolation;
}

uint8_t SdwModes(const SegmentDescriptor& sdw) {
  uint8_t modes = 0;
  if (sdw.read) modes |= kModeRead;
  if (sdw.write) modes |= kModeWrite;
  if (sdw.execute) modes |= kModeExecute;
  return modes;
}

// Witness with the mls flag derived from the ORACLE's lattice, so the
// classification cannot inherit a kernel bug either.
std::string OracleWitness(const Process& p, SegNo segno, Uid uid, uint8_t held,
                          uint8_t derived, const OracleSubject& subject,
                          const OracleObject& object) {
  const uint8_t excess = static_cast<uint8_t>(held & ~derived);
  bool mls = false;
  if ((excess & (kModeRead | kModeExecute)) != 0 &&
      !OracleCanRead(subject.clearance, object.label)) {
    mls = true;
  }
  if ((excess & kModeWrite) != 0 && !OracleCanWrite(subject.clearance, object.label)) {
    mls = true;
  }
  const audit_static::AccessWitness witness{p.pid(), p.principal().ToString(), segno,
                                            uid,     held,                    derived, mls};
  return audit_static::FormatAccessWitness(witness);
}

const char* InvariantForClaim(audit_static::AuditClaim claim) {
  using audit_static::AuditClaim;
  switch (claim) {
    case AuditClaim::kRingBracketWellFormed: return "ring-brackets";
    case AuditClaim::kSdwBracketConsistency: return "sdw-consistency";
    case AuditClaim::kGateDiscipline:
    case AuditClaim::kGateRegistry: return "gate-discipline";
    case AuditClaim::kAccessDerivable: return "access-derivation";
    case AuditClaim::kMlsWidening: return "mls-widening";
    case AuditClaim::kDsegStoreConsistency: return "dseg-consistency";
    case AuditClaim::kLockOrder: return "lock-order";
    default: return "certification";
  }
}

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1Dull;
}

}  // namespace

// One universe: the kernel under test plus the oracle's mirror of the
// protection state the applied trace should have produced.
struct ModelChecker::World {
  std::unique_ptr<Kernel> kernel;
  std::vector<Process*> procs;
  std::vector<Uid> seg_uids;
  std::vector<SegNo> root_segnos;  // Per process.
  Uid root_uid = kInvalidUid;
  OracleWorld oracle;
  std::vector<std::string> trace;  // "op -> outcome" lines, in application order.
  // Lock-order violations attributed by the LockTrace observer hook; a
  // per-transition delta names the gate call that produced each one.
  uint64_t lock_violations_observed = 0;

  // Everything a transition changes: the kernel's state, the mirror and the
  // trace. The layout above (processes, segments, root) never changes.
  struct Saved {
    KernelSnapshot kernel;
    OracleWorld oracle;
    std::vector<std::string> trace;
    uint64_t lock_violations_observed = 0;
  };
  Saved Save() const { return Saved{kernel->Snapshot(), oracle, trace, lock_violations_observed}; }
  void Rewind(const Saved& saved) {
    kernel->Restore(saved.kernel);
    oracle = saved.oracle;
    trace = saved.trace;
    lock_violations_observed = saved.lock_violations_observed;
  }
};

ModelChecker::ModelChecker(const McConfig& config)
    : config_(config), alphabet_(BuildAlphabet(config)) {}

std::unique_ptr<ModelChecker::World> ModelChecker::BuildWorld() const {
  auto world = std::make_unique<World>();

  KernelParams params;
  params.machine.core_frames = 64;
  params.machine.interrupt_lines = 8;
  // Pin one CPU: check.sh --smp exports MULTICS_CPUS=4, and state counts must
  // not depend on the host environment. Lock-order certification still works
  // at one CPU — LockTrace observes every acquisition unconditionally.
  params.machine.cpus = 1;
  params.bulk_pages = 32;
  params.disk_pages = 256;
  params.ast_capacity = 32;
  params.virtual_processors = 4;
  params.config = KernelConfiguration::Kernelized6180();
  world->kernel = std::make_unique<Kernel>(params);
  Kernel& kernel = *world->kernel;

  // Root directory: world-visible sma, system-low label. Direct branch
  // mutation (the audit fixtures' idiom): BuildWorld constructs the machine
  // being certified; only the explored ops go through gates.
  world->root_uid = kernel.hierarchy().root();
  Branch& root = **kernel.store().Get(world->root_uid);
  root.acl = Acl{};
  root.acl.Set(AclEntry{"*", "*", "*", kDirStatus | kDirModify | kDirAppend});
  world->oracle.root.is_directory = true;
  world->oracle.root.acl.push_back(
      OracleAclEntry{"*", "*", "*", kOrDirStatus | kOrDirModify | kOrDirAppend});
  world->oracle.root.label = ToOracleLabel(root.label);

  // Segments s0..sN-1 climbing the label ladder, world-rw, user brackets.
  // Created through the raw hierarchy (not FsCreateSegment): a gate-created
  // segment is stamped with its creator's label, and no untrusted subject
  // could gate-create a secret segment inside the system-low root without a
  // write-down. The certified machine simply *has* this configuration.
  for (int s = 0; s < config_.segments; ++s) {
    SegmentAttributes attrs;
    attrs.acl.Set(AclEntry{"*", "*", "*", kModeRead | kModeWrite});
    attrs.label = LabelFor(s, config_.levels);
    attrs.brackets = UserBrackets();
    Uid uid = kernel.hierarchy().CreateSegment(world->root_uid, SegName(s), attrs).value();
    world->seg_uids.push_back(uid);

    OracleObject object;
    object.acl.push_back(OracleAclEntry{"*", "*", "*", kOrRead | kOrWrite});
    object.label = ToOracleLabel(attrs.label);
    object.brackets = ToOracleBrackets(attrs.brackets);
    world->oracle.objects.push_back(object);
  }

  if (config_.mutation == Mutation::kGateWithoutEntries) {
    // Seeded configuration bug: an entry surface no gate list accounts for.
    Branch& s0 = **kernel.store().Get(world->seg_uids[0]);
    s0.gate = true;
    s0.gate_entries = 0;
  }

  // Processes p0..pN-1 on the same ladder, ring 4, connected to the root.
  for (int p = 0; p < config_.processes; ++p) {
    const Principal principal{std::string("u").append(std::to_string(p)), "Mc", "a"};
    const MlsLabel clearance = LabelFor(p, config_.levels);
    Process* process =
        kernel.BootstrapProcess(std::string("p").append(std::to_string(p)), principal, clearance)
            .value();
    world->procs.push_back(process);

    OracleSubject subject;
    subject.principal = OraclePrincipal{principal.person, principal.project, principal.tag};
    subject.clearance = ToOracleLabel(clearance);
    subject.ring = kRingUser;
    subject.trusted = false;  // Configuration intent: no user process is trusted.
    world->oracle.subjects.push_back(subject);
  }
  if (config_.mutation == Mutation::kTrustedUserProcess) {
    // Seeded monitor bug: the kernel derives trust from the live ring, so a
    // process mis-created in the supervisor ring becomes a trusted subject.
    // The certifier derives trust the same way and cannot see this; only the
    // oracle's configuration-intent `trusted` field catches it.
    world->procs[0]->set_ring(kRingSupervisor);
  }
  for (Process* p : world->procs) {
    world->root_segnos.push_back(world->kernel->RootDir(*p).value());
  }
  world->oracle.InitConnections();

  World* raw = world.get();
  kernel.machine().lock_trace_mutable().SetViolationObserver(
      [raw](const LockOrderViolation&) { ++raw->lock_violations_observed; });
  return world;
}

bool ModelChecker::Applicable(const World& world, const Op& op) const {
  const Uid uid = world.seg_uids[op.seg];
  const Process& p = *world.procs[op.proc];
  auto segno = p.kst().SegNoOf(uid);
  const uint32_t usage = segno.ok() ? p.kst().UsageCount(segno.value()) : 0;
  switch (op.kind) {
    case OpKind::kInitiate:
      // The bounded environment stacks at most usage_cap initiations; an
      // unbounded stack has no fixed point (the count is real kernel state).
      return usage < static_cast<uint32_t>(config_.usage_cap);
    case OpKind::kTerminate:
    case OpKind::kSetLength:
      return usage > 0;  // The error paths are fuzzer territory, not BFS.
    default:
      return true;  // Policy ops always fire — denied ones probe the audit log.
  }
}

std::string ModelChecker::ApplyAndCheck(World* world, const Op& op,
                                        std::vector<McViolation>* out) const {
  Kernel& kernel = *world->kernel;
  Process& p = *world->procs[op.proc];
  OracleWorld& oracle = world->oracle;
  const Uid uid = world->seg_uids[op.seg];
  const size_t pi = static_cast<size_t>(op.proc);
  const size_t si = static_cast<size_t>(op.seg);

  const uint64_t denials_before = kernel.audit().denials();
  const uint64_t lock_violations_before = world->lock_violations_observed;

  // SDW snapshot for the skip-revocation mutation: the seeded bug "forgets"
  // DisconnectSdwsFor, which we simulate by putting the old descriptors back.
  std::vector<std::pair<size_t, SegmentDescriptor>> sdw_snapshot;
  const bool policy_op = op.kind == OpKind::kSetAcl || op.kind == OpKind::kRemoveAcl ||
                         op.kind == OpKind::kSetBrackets;
  if (config_.mutation == Mutation::kSkipAclRevocation && policy_op) {
    for (size_t i = 0; i < world->procs.size(); ++i) {
      auto segno = world->procs[i]->kst().SegNoOf(uid);
      if (segno.ok()) {
        sdw_snapshot.emplace_back(i, world->procs[i]->dseg().Get(segno.value()));
      }
    }
  }

  bool expect_ok = false;
  Status status = Status::kOk;
  uint8_t granted = 0;
  bool check_granted = false;

  auto segno_or_reserved = [&]() -> SegNo {
    auto segno = p.kst().SegNoOf(uid);
    return segno.ok() ? segno.value() : static_cast<SegNo>(63);  // 63: reserved, never known.
  };

  switch (op.kind) {
    case OpKind::kInitiate: {
      expect_ok = oracle.ExpectInitiateOk(pi, si);
      auto result = kernel.Initiate(p, world->root_segnos[pi], SegName(op.seg));
      status = result.status();
      if (result.ok()) {
        granted = result->granted_modes;
        check_granted = true;
        oracle.OnInitiate(pi, si);
        SegmentDescriptor* sdw = p.dseg().GetMutable(result->segno);
        if (config_.mutation == Mutation::kWidenSdwBrackets) {
          sdw->brackets = RingBrackets{5, 5, 5};  // Wider than the branch's {4,4,4}.
        }
        if (config_.mutation == Mutation::kIgnoreMls) {
          const Branch& branch = **kernel.store().Get(uid);
          const uint8_t acl_only = branch.acl.EffectiveModes(p.principal());
          sdw->read = (acl_only & kModeRead) != 0;
          sdw->write = (acl_only & kModeWrite) != 0;
          sdw->execute = (acl_only & kModeExecute) != 0;
        }
      }
      break;
    }
    case OpKind::kTerminate: {
      expect_ok = oracle.conn[pi][si].usage > 0;
      status = kernel.Terminate(p, segno_or_reserved());
      if (IsOk(status)) {
        oracle.OnTerminate(pi, si);
      }
      break;
    }
    case OpKind::kSetAcl: {
      expect_ok = oracle.ExpectDirModifyOk(pi);
      status = kernel.FsSetAcl(p, world->root_segnos[pi], SegName(op.seg),
                               AclVariant(op.variant));
      if (IsOk(status)) {
        oracle.OnAclSet(si, OracleAclVariant(op.variant));
      }
      break;
    }
    case OpKind::kRemoveAcl: {
      const bool entry_exists =
          std::any_of(oracle.objects[si].acl.begin(), oracle.objects[si].acl.end(),
                      [](const OracleAclEntry& e) {
                        return e.person == "*" && e.project == "*" && e.tag == "*";
                      });
      expect_ok = oracle.ExpectDirModifyOk(pi) && entry_exists;
      status = kernel.FsRemoveAclEntry(p, world->root_segnos[pi], SegName(op.seg), "*", "*", "*");
      if (IsOk(status)) {
        oracle.OnAclRemove(si, "*", "*", "*");
      }
      break;
    }
    case OpKind::kSetBrackets: {
      const RingBrackets brackets = BracketVariant(op.variant);
      expect_ok = brackets.Valid() && brackets.write_limit >= p.ring() &&
                  oracle.ExpectDirModifyOk(pi);
      status = kernel.FsSetRingBrackets(p, world->root_segnos[pi], SegName(op.seg), brackets,
                                        /*gate=*/false, /*gate_entries=*/0);
      if (IsOk(status)) {
        oracle.OnSetBrackets(si, ToOracleBrackets(brackets));
      }
      break;
    }
    case OpKind::kSetLength: {
      const uint32_t pages = static_cast<uint32_t>(op.variant) + 1;
      expect_ok = oracle.ExpectSetLengthOk(pi, si);
      status = kernel.SegSetLength(p, segno_or_reserved(), pages);
      if (IsOk(status)) {
        oracle.OnSetLength(pi, si, pages);
      }
      break;
    }
  }

  if (config_.mutation == Mutation::kSkipAclRevocation && policy_op && IsOk(status)) {
    for (const auto& [i, sdw] : sdw_snapshot) {
      auto segno = world->procs[i]->kst().SegNoOf(uid);
      if (segno.ok()) {
        world->procs[i]->dseg().Set(segno.value(), sdw);
      }
    }
  }
  if (config_.mutation == Mutation::kMissingAudit && IsAccessDenial(status)) {
    world->kernel->audit().Clear();  // The denial path that forgot to audit.
  }
  if (config_.mutation == Mutation::kLockOrderInversion && IsOk(status)) {
    // A gate body taking the directory lock inside the traffic lock.
    LockTrace& trace = kernel.machine().lock_trace_mutable();
    LockSet& locks = kernel.machine().locks();
    const Cycles now = kernel.machine().clock().now();
    trace.OnAcquire(0, &locks.Traffic(), now);
    trace.OnAcquire(0, &locks.Dir(world->root_uid), now);
    trace.OnRelease(0, &locks.Dir(world->root_uid));
    trace.OnRelease(0, &locks.Traffic());
  }

  // The trace line (recorded before the checks so a violation's trace names
  // the call that produced it, outcome included).
  std::ostringstream line;
  line << op.ToString() << " -> " << (IsOk(status) ? "OK" : std::string(StatusName(status)));
  if (check_granted) {
    line << " granted " << SegmentModeString(granted);
  }
  world->trace.push_back(line.str());

  // --- Per-transition checks ----------------------------------------------

  // (1) Differential outcome: the kernel granted/denied exactly when the
  // oracle's independent derivation says it should.
  if (IsOk(status) != expect_ok) {
    AddViolation(*world, "oracle-diff",
                 "kernel returned " + std::string(StatusName(status)) + " but the oracle derives " +
                     (expect_ok ? "GRANT" : "DENY") + " for " + op.ToString(),
                 out);
  } else if (check_granted && granted != oracle.conn[pi][si].modes) {
    // (1b) Granted-mode agreement on a successful initiation.
    AddViolation(*world, "oracle-diff",
                 OracleWitness(p, p.kst().SegNoOf(uid).value_or(0), uid, granted,
                               oracle.conn[pi][si].modes, oracle.subjects[pi],
                               oracle.objects[si]),
                 out);
  }

  // (2) Audit completeness: every denial leaves a record.
  if (IsAccessDenial(status) && kernel.audit().denials() <= denials_before) {
    AddViolation(*world, "audit-completeness",
                 "denial " + std::string(StatusName(status)) + " from " + op.ToString() +
                     " left no audit record",
                 out);
  }

  // (3) Lock-order freedom, attributed: the observer hook counted any
  // inversion this gate call produced.
  if (world->lock_violations_observed > lock_violations_before) {
    const auto& violations = kernel.machine().lock_trace().violations();
    std::string detail = "lock-order inversion during " + op.ToString();
    if (!violations.empty()) {
      const LockOrderViolation& v = violations.back();
      detail += ": acquired `" + v.acquired + "` (level " + std::to_string(v.acquired_level) +
                ") while holding `" + v.held + "` (level " + std::to_string(v.held_level) + ")";
    }
    AddViolation(*world, "lock-order", detail, out);
  }

  // (4) Connection sweep: every (process, segment) descriptor matches the
  // oracle's mirror — connected exactly when the trace says, holding exactly
  // the modes derived at connect time, usage counts agreeing.
  for (size_t i = 0; i < world->procs.size() && out->size() < kMaxViolations; ++i) {
    Process& proc = *world->procs[i];
    for (size_t s = 0; s < world->seg_uids.size(); ++s) {
      const OracleConnection& conn = oracle.conn[i][s];
      auto segno = proc.kst().SegNoOf(world->seg_uids[s]);
      const uint32_t usage = segno.ok() ? proc.kst().UsageCount(segno.value()) : 0;
      if (usage != conn.usage) {
        AddViolation(*world, "oracle-diff",
                     std::string("p").append(std::to_string(i)) + "/s" + std::to_string(s) + " KST usage " +
                         std::to_string(usage) + " but oracle mirror says " +
                         std::to_string(conn.usage),
                     out);
        continue;
      }
      const bool connected = segno.ok() && proc.dseg().Get(segno.value()).valid;
      if (connected != conn.connected) {
        AddViolation(*world, "oracle-diff",
                     std::string("p").append(std::to_string(i)) + "/s" + std::to_string(s) + " descriptor is " +
                         (connected ? "connected" : "disconnected") +
                         " but the oracle mirror says " +
                         (conn.connected ? "connected" : "disconnected") +
                         " (revocation not applied?)",
                     out);
      } else if (connected) {
        const uint8_t held = SdwModes(proc.dseg().Get(segno.value()));
        if (held != conn.modes) {
          AddViolation(*world, "oracle-diff",
                       OracleWitness(proc, segno.value(), world->seg_uids[s], held, conn.modes,
                                     oracle.subjects[i], oracle.objects[s]),
                       out);
        }
      }
    }
  }

  return world->trace.back();
}

std::string ModelChecker::CanonicalState(World* world) const {
  // The full protection state, deterministically serialized. Excluded on
  // purpose: clocks, meters, and the audit log (monotone — no fixed point),
  // none of which any access decision reads.
  std::ostringstream out;
  Kernel& kernel = *world->kernel;
  auto put_branch = [&](Uid uid) {
    const Branch& b = **kernel.store().Get(uid);
    out << "{acl:";
    for (const AclEntry& e : b.acl.entries()) {
      out << e.NamePart() << "=" << static_cast<int>(e.modes) << ",";
    }
    out << ";lbl:" << static_cast<int>(b.label.level) << "/" << b.label.categories.bits()
        << ";brk:" << b.brackets.ToString() << ";pg:" << b.pages << ";gate:" << b.gate << "/"
        << b.gate_entries << "}";
  };
  out << "root";
  put_branch(world->root_uid);
  for (size_t s = 0; s < world->seg_uids.size(); ++s) {
    out << "|s" << s;
    put_branch(world->seg_uids[s]);
  }
  for (size_t i = 0; i < world->procs.size(); ++i) {
    Process& p = *world->procs[i];
    out << "|p" << i << "{ring:" << static_cast<int>(p.ring());
    for (size_t s = 0; s < world->seg_uids.size(); ++s) {
      auto segno = p.kst().SegNoOf(world->seg_uids[s]);
      if (!segno.ok()) {
        out << ";-";
        continue;
      }
      const SegmentDescriptor& sdw = p.dseg().Get(segno.value());
      out << ";u" << p.kst().UsageCount(segno.value()) << (sdw.valid ? "+" : "-");
      if (sdw.valid) {
        out << static_cast<int>(SdwModes(sdw)) << "/" << sdw.brackets.ToString() << "/"
            << sdw.length_pages;
      }
    }
    out << "}";
  }
  return out.str();
}

void ModelChecker::CertifyState(World* world, std::vector<McViolation>* out) const {
  // The static certifier's claims on this reachable state. Hierarchy
  // reachability and scheduler isolation are structural — the op alphabet
  // cannot change them — so checking them per state would only cost time.
  audit_static::StaticCertifier certifier(world->kernel.get());
  audit_static::AuditReport report;
  certifier.CheckRingBrackets(&report);
  certifier.CheckGates(&report);
  certifier.CheckAccessDerivation(&report);
  certifier.CheckDsegConsistency(&report);
  certifier.CheckLockOrder(&report);
  for (const audit_static::AuditFinding& finding : report.findings) {
    AddViolation(*world, InvariantForClaim(finding.claim),
                 finding.subject + ": " + finding.message, out);
  }
}

void ModelChecker::AddViolation(const World& world, const std::string& invariant,
                                const std::string& detail,
                                std::vector<McViolation>* out) const {
  if (out->size() >= kMaxViolations) {
    return;
  }
  out->push_back(McViolation{invariant, detail, world.trace});
}

McResult ModelChecker::Explore() {
  MX_HOST_SPAN(kModelCheck);
  McResult result;
  result.stats.alphabet = alphabet_.size();

  // One world serves the whole search. The frontier holds generating
  // prefixes, so its memory stays flat: a dequeued state is rebuilt once, by
  // restoring the boot state and replaying its prefix, and each of its
  // successors starts from a restore of that parent.
  auto world = BuildWorld();
  const World::Saved boot = world->Save();

  // Seen-set keyed on the FULL canonical string: a hash collision would merge
  // distinct states and silently prune reachable ones.
  std::set<std::string> seen;
  std::deque<std::vector<Op>> frontier;
  seen.insert(CanonicalState(world.get()));
  result.stats.states = 1;
  CertifyState(world.get(), &result.violations);
  frontier.push_back({});

  bool truncated = false;
  std::vector<const Op*> applicable;
  while (!frontier.empty() && result.violations.size() < kMaxViolations) {
    const std::vector<Op> prefix = std::move(frontier.front());
    frontier.pop_front();
    if (config_.max_depth != 0 && prefix.size() >= config_.max_depth) {
      truncated = true;
      continue;
    }
    world->Rewind(boot);
    for (const Op& prev : prefix) {
      std::vector<McViolation> replay_sink;  // Already reported on first visit.
      (void)ApplyAndCheck(world.get(), prev, &replay_sink);
    }
    applicable.clear();
    for (const Op& op : alphabet_) {
      if (Applicable(*world, op)) {
        applicable.push_back(&op);
      }
    }
    const World::Saved parent = world->Save();
    bool at_parent = true;
    for (const Op* candidate : applicable) {
      const Op& op = *candidate;
      if (result.violations.size() >= kMaxViolations) {
        break;
      }
      if (result.stats.states >= config_.max_states) {
        truncated = true;
        break;
      }
      if (!at_parent) {
        world->Rewind(parent);
      }
      at_parent = false;
      ++result.stats.transitions;
      ApplyAndCheck(world.get(), op, &result.violations);
      const std::string canon = CanonicalState(world.get());
      if (seen.insert(canon).second) {
        ++result.stats.states;
        const uint32_t depth = static_cast<uint32_t>(prefix.size()) + 1;
        result.stats.max_depth = std::max(result.stats.max_depth, depth);
        CertifyState(world.get(), &result.violations);
        std::vector<Op> next = prefix;
        next.push_back(op);
        frontier.push_back(std::move(next));
      }
    }
    if (result.stats.states >= config_.max_states) {
      break;
    }
  }
  result.stats.fixed_point = !truncated && frontier.empty() &&
                             result.violations.size() < kMaxViolations;
  return result;
}

McResult ModelChecker::Fuzz(uint64_t seed, uint64_t ops) {
  MX_HOST_SPAN(kModelCheck);
  McResult result;
  result.stats.alphabet = alphabet_.size();
  auto world = BuildWorld();
  uint64_t rng = seed != 0 ? seed : 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < ops && result.violations.size() < kMaxViolations; ++i) {
    // The full alphabet including inapplicable ops: the fuzzer exercises the
    // error paths (terminate-unknown, re-initiate past the cap) BFS prunes.
    const Op& op = alphabet_[XorShift64(&rng) % alphabet_.size()];
    ApplyAndCheck(world.get(), op, &result.violations);
    ++result.stats.fuzz_ops;
    ++result.stats.transitions;
    if ((i + 1) % 64 == 0) {
      CertifyState(world.get(), &result.violations);
    }
    // Keep counterexample traces readable: the mirror carries all history.
    if (world->trace.size() > 32) {
      world->trace.erase(world->trace.begin());
    }
  }
  if (result.violations.empty()) {
    CertifyState(world.get(), &result.violations);
  }
  return result;
}

}  // namespace multics::mc
