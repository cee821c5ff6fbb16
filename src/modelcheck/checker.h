// The bounded model checker: exhaustive enumeration of every reachable
// protection state of a small kernel configuration under a generated
// gate-operation alphabet, with a canonicalized seen-set so the exploration
// runs to a fixed point. This is ROADMAP item 4's "exhaustive version" of
// mx_audit: where the static certifier checks the claims on single
// constructed configurations (sampling), the checker proves them on *every*
// state a bounded environment of user processes can drive the kernel into.
//
// At each transition the checker asserts:
//   * differential agreement with the std-only oracle (oracle.h): the
//     kernel's access outcome and granted modes match an independent
//     re-derivation of ACL ∧ MLS ∧ ring rules, and every connection's SDW
//     modes match the oracle's mirror of the trace;
//   * audit-log completeness: every access denial the kernel returns left a
//     denial record in the audit log;
// and at each NEW state it runs the static certifier's passes (ring-bracket
// monotonicity and SDW consistency, gate discipline, SDW-mode derivability,
// dseg/KST/store agreement, lock-order freedom over the LockTrace that PR 5's
// observer hook attributes to the violating gate call).
//
// One kernel serves the whole search. The frontier holds each state's
// generating op prefix, so its memory stays flat; a dequeued state is rebuilt
// once, by restoring the boot snapshot (Kernel::Snapshot/Restore) and
// replaying its prefix, and every successor starts from a restore of that
// parent — ops the parent state makes inapplicable are skipped before any
// work. The seen-set keys on the full canonical state string (never a hash
// alone, so distinct states cannot merge). Clocks and the audit log are
// excluded from the canonical state — they grow monotonically and would
// prevent the fixed point — which is sound because no access decision reads
// them.
//
// The same machinery runs as a differential fuzzer (Fuzz): one long-lived
// world, a seeded xorshift stream of ops from the full alphabet (including
// inapplicable ones, to exercise the error paths BFS prunes), the same
// per-transition checks after every call, and periodic certifier sweeps.
//
// Mutation is the checker's own kill-test surface: each Mutation seeds one
// monitor bug (widened SDW brackets, skipped revocation, ignored MLS, a
// silent denial, a lock-order inversion, a user process treated as trusted,
// a gate with no entry bound) and tests/modelcheck_test.cc proves each one
// produces a counterexample trace naming the violating gate sequence.

#ifndef SRC_MODELCHECK_CHECKER_H_
#define SRC_MODELCHECK_CHECKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/audit_static/certifier.h"
#include "src/core/kernel.h"
#include "src/modelcheck/oracle.h"

namespace multics::mc {

// Seeded monitor bugs, each simulating one way a kernel could fail the
// certification claims. kNone is the real kernel.
enum class Mutation : uint8_t {
  kNone,
  kWidenSdwBrackets,    // Initiation installs SDW brackets wider than the branch.
  kSkipAclRevocation,   // Policy changes leave existing SDWs connected.
  kIgnoreMls,           // SDW modes derived from the ACL alone.
  kMissingAudit,        // Denials leave no audit record.
  kLockOrderInversion,  // A gate body takes dir inside traffic.
  kTrustedUserProcess,  // A user process runs as a trusted subject.
  kGateWithoutEntries,  // A gate segment ships with a zero entry bound.
};

inline constexpr int kMutationCount = static_cast<int>(Mutation::kGateWithoutEntries) + 1;

const char* MutationName(Mutation mutation);
// Parses a MutationName (e.g. "skip-acl-revocation"); false on no match.
bool ParseMutation(const std::string& text, Mutation* out);

// The bounded environment: how many subjects/objects exist and which policy
// rewrites the op alphabet may apply. Small on purpose — the claims are
// per-(process, segment, mode), so a 2x2 space already exercises every rule;
// Deep() adds a third level, remove-acl, and segment growth.
struct McConfig {
  int processes = 2;        // 2..3 user processes (p0 unclassified, p1 secret, p2 confidential).
  int segments = 2;         // 2..3 segments with the same label ladder.
  int levels = 2;           // Sensitivity levels in use (clamped to processes/segments).
  int acl_variants = 2;     // set_acl rewrites: V0 world-rw, V1 world-r, V2 world-null.
  int bracket_variants = 1; // set_ring_brackets rewrites: B0 {4,5,5}, B1 {2,4,5} (denied in ring 4).
  bool with_remove_acl = false;
  bool with_seg_set_length = false;
  int usage_cap = 1;        // Max stacked initiations per (process, segment).
  uint32_t max_depth = 0;   // 0 = run to the fixed point.
  uint64_t max_states = 200000;
  Mutation mutation = Mutation::kNone;

  static McConfig Fast();  // The ctest configuration: 2x2x2, fixed point in seconds.
  static McConfig Deep();  // check.sh --certify: 3x3x3 with the full alphabet.
};

// One letter of the gate-operation alphabet.
enum class OpKind : uint8_t {
  kInitiate,
  kTerminate,
  kSetAcl,
  kRemoveAcl,
  kSetBrackets,
  kSetLength,
};

struct Op {
  OpKind kind = OpKind::kInitiate;
  int proc = 0;
  int seg = 0;
  int variant = 0;

  std::string ToString() const;  // "p0:set_acl(s1,V1)"
};

std::vector<Op> BuildAlphabet(const McConfig& config);

// A violated invariant with its counterexample: the gate sequence (with
// outcomes) that drives the kernel from boot into the violating state.
struct McViolation {
  std::string invariant;           // "access-derivation", "lock-order", ...
  std::string detail;              // Witness text (FormatAccessWitness for mode excess).
  std::vector<std::string> trace;  // Op strings with outcomes, in order.

  std::string ToString() const;
};

struct McStats {
  uint64_t states = 0;       // Distinct canonical states reached.
  uint64_t transitions = 0;  // Op applications explored.
  uint32_t max_depth = 0;    // Longest generating prefix of any state.
  uint64_t alphabet = 0;     // Op alphabet size.
  bool fixed_point = false;  // Exploration exhausted the frontier.
  uint64_t fuzz_ops = 0;     // Fuzz mode: ops executed.
};

struct McResult {
  McStats stats;
  std::vector<McViolation> violations;

  bool clean() const { return violations.empty(); }
  std::string ToString() const;
};

class ModelChecker {
 public:
  explicit ModelChecker(const McConfig& config);

  // Breadth-first exhaustive exploration to the seen-set fixed point (or the
  // depth/state bound). Deterministic: same config, same stats, same
  // violations, independent of host environment (the machine is pinned to
  // one CPU so MULTICS_CPUS cannot perturb state counts).
  McResult Explore();

  // Differential fuzzing: one world, `ops` seeded random gate calls checked
  // against the oracle after every call, certifier sweep every 64 ops.
  McResult Fuzz(uint64_t seed, uint64_t ops);

 private:
  struct World;

  std::unique_ptr<World> BuildWorld() const;
  // Applies `op` to `world`, runs the per-transition checks, and appends any
  // violations (capped) to `out`. Returns the formatted "op -> outcome" line.
  std::string ApplyAndCheck(World* world, const Op& op, std::vector<McViolation>* out) const;
  std::string CanonicalState(World* world) const;
  void CertifyState(World* world, std::vector<McViolation>* out) const;
  void AddViolation(const World& world, const std::string& invariant,
                    const std::string& detail, std::vector<McViolation>* out) const;
  bool Applicable(const World& world, const Op& op) const;

  static constexpr size_t kMaxViolations = 8;  // Stop after enough counterexamples.

  McConfig config_;
  std::vector<Op> alphabet_;
};

}  // namespace multics::mc

#endif  // SRC_MODELCHECK_CHECKER_H_
