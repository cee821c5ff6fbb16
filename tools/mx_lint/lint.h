// mx_lint: the source-level half of the static kernel certifier.
//
// The paper's *review* activity audits the supervisor's code so that
// "correctness is necessary and sufficient" to enforce the security model.
// This linter mechanizes the code-level obligations that audit rests on
// and the compiler cannot see, without compiling or running anything. (Two
// it can see are compile errors instead: a gate prologue takes a GateId, so
// it cannot name a non-census gate, and Status/Result are [[nodiscard]]
// under -Werror, so a dropped error does not build — tests/compile_fail/.)
//
//   1. layering        — the include graph must respect the layering DAG in
//                        docs/ARCHITECTURE.md (src/hw never reaches up into
//                        src/fs or src/core; src/userring never reaches
//                        kernel internals; nothing in the kernel includes
//                        src/inject).
//   2. gate-prologue   — coverage: every row of the gate census (the
//                        X-macro table in src/meter/span_census.h) must be
//                        named as GateId::kX by some gate body in src/core — no
//                        registered entry point without an audited
//                        implementation.
//   3. mutable-counter  — no `mutable` arithmetic member in src/core: a
//                        counter bumped from const methods is hidden kernel
//                        state, and on the simulated multiprocessor it is an
//                        unlocked write behind a const façade.
//   4. lock-order      — the lock hierarchy table in docs/ARCHITECTURE.md
//                        (between the mx:lock-hierarchy markers) must match
//                        kLockHierarchy in src/hw/sim_lock.h name-for-name
//                        and level-for-level: the documented ordering DAG is
//                        certified against the one the kernel enforces.
//   5. host-span        — src/meter/host_profile.h is exempt from the
//                        layering DAG (std-only, host clock only) so every
//                        layer's hot paths can carry MX_HOST_SPAN; the
//                        compensating rule bans the profiler entirely from
//                        the reference-monitor modules (src/fs, src/mls),
//                        where a host-time probe around an access decision
//                        would sit outside the review argument.
//   6. oracle-confinement — src/modelcheck/oracle.{h,cc}, the model checker's
//                        differential baseline, may include nothing from the
//                        tree except the oracle's own header: an oracle that
//                        shares a kernel header could inherit the very bug it
//                        exists to catch. A modelcheck module with no oracle
//                        files fails too (the rule must not pass vacuously).
//   7. hot-path-containers — inside the mx:hot-path:begin/end regions of the
//                        flattened simulator-core files (src/base/event_queue.h,
//                        src/hw/sim_lock.h, src/meter/meter.h) no member may
//                        be a std::map, std::multimap, or std::function:
//                        those regions were converted to array-indexed
//                        structures for throughput, and a node-based or
//                        type-erased member there is a silent regression.
//                        Each of the three files must carry at least one
//                        marked region (no vacuous pass).
//
// The library is standalone (std only) so the lint binary never links the
// kernel it audits.

#ifndef TOOLS_MX_LINT_LINT_H_
#define TOOLS_MX_LINT_LINT_H_

#include <string>
#include <vector>

namespace multics::lint {

struct Finding {
  std::string rule;     // "layering" | "gate-prologue" | "mutable-counter" |
                        // "lock-order" | "host-span" | "oracle-confinement" |
                        // "hot-path-containers"
  std::string file;     // Repo-relative path.
  int line = 0;         // 1-based; 0 when the finding is not line-anchored.
  std::string message;
};

struct Report {
  std::vector<Finding> findings;
  int files_scanned = 0;

  bool clean() const { return findings.empty(); }
  int CountForRule(const std::string& rule) const;
  std::string ToString() const;
  std::string ToJson() const;
};

// Runs all seven checks over `<repo_root>/src`. The root must contain a
// src/ directory; a missing tree produces a single "layering" finding so a
// misconfigured CI invocation cannot pass vacuously.
Report RunLint(const std::string& repo_root);

// Individual passes, exposed for the fixture tests.
void CheckLayering(const std::string& repo_root, Report* report);
void CheckGatePrologues(const std::string& repo_root, Report* report);
void CheckMutableCounters(const std::string& repo_root, Report* report);
void CheckLockOrder(const std::string& repo_root, Report* report);
void CheckHostSpans(const std::string& repo_root, Report* report);
void CheckOracleConfinement(const std::string& repo_root, Report* report);
void CheckHotPathContainers(const std::string& repo_root, Report* report);

// Strips // and /* */ comments and the contents of string/char literals
// (replaced with spaces, preserving line structure). Exposed for tests.
std::string StripCommentsAndStrings(const std::string& text);

}  // namespace multics::lint

#endif  // TOOLS_MX_LINT_LINT_H_
