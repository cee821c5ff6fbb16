// The differential oracle: an independent, std-only reimplementation of the
// reference monitor's decision rules — ACL first-match-by-specificity, the
// Mitre-lattice simple-security and *-property checks, and the ring-bracket
// access tests — plus a mirror of the protection state a trace of successful
// gate calls should have produced.
//
// Independence is the whole point. This header and oracle.cc may include
// NOTHING from src/ (mx_lint's oracle-confinement rule enforces it), so the
// oracle cannot inherit a kernel bug through a shared type or helper: every
// rule here is re-derived from the paper's statement of the policy, not from
// the kernel's code. The model checker and fuzzer (checker.cc) translate
// kernel objects into these oracle types at the boundary and diff the
// kernel's granted modes against OracleSegmentModes after every gate call.
//
// The oracle deliberately models *less* than the kernel: no clocks, no
// paging, no scheduler — only the protection state (ACLs, labels, brackets,
// per-subject connections) that the security argument is about.

#ifndef SRC_MODELCHECK_ORACLE_H_
#define SRC_MODELCHECK_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace multics::mc {

// Segment / directory mode bits, re-declared (not included) by design.
inline constexpr uint8_t kOrRead = 1 << 0;
inline constexpr uint8_t kOrWrite = 1 << 1;
inline constexpr uint8_t kOrExecute = 1 << 2;
inline constexpr uint8_t kOrDirStatus = 1 << 0;
inline constexpr uint8_t kOrDirModify = 1 << 1;
inline constexpr uint8_t kOrDirAppend = 1 << 2;

std::string OracleModeString(uint8_t modes);  // "rw-" style, for diffs.

struct OraclePrincipal {
  std::string person;
  std::string project;
  std::string tag = "a";
};

// An ACL entry; "*" wildcards any component. Matching is most-specific-first
// (a non-wildcard person outranks a non-wildcard project outranks a
// non-wildcard tag), first hit wins even when it grants nothing.
struct OracleAclEntry {
  std::string person = "*";
  std::string project = "*";
  std::string tag = "*";
  uint8_t modes = 0;
};

uint8_t OracleAclModes(const std::vector<OracleAclEntry>& acl, const OraclePrincipal& who);
// Add-or-replace by (person, project, tag) name part.
void OracleAclSet(std::vector<OracleAclEntry>* acl, const OracleAclEntry& entry);
// Remove by exact name part; false when absent.
bool OracleAclRemove(std::vector<OracleAclEntry>* acl, const std::string& person,
                     const std::string& project, const std::string& tag);

// A point in the lattice: total-order level crossed with a category bitset.
struct OracleLabel {
  int level = 0;
  uint32_t categories = 0;
};

bool OracleDominates(const OracleLabel& a, const OracleLabel& b);
// Simple security: no read up.
bool OracleCanRead(const OracleLabel& subject, const OracleLabel& object);
// *-property: no write down.
bool OracleCanWrite(const OracleLabel& subject, const OracleLabel& object);

// Ring brackets (r1 <= r2 <= r3) and the per-mode ring tests.
struct OracleBrackets {
  int r1 = 4;
  int r2 = 4;
  int r3 = 4;
};

bool OracleRingAllowsWrite(int ring, const OracleBrackets& b);    // ring <= r1
bool OracleRingAllowsRead(int ring, const OracleBrackets& b);     // ring <= r2
bool OracleRingAllowsExecute(int ring, const OracleBrackets& b);  // r1 <= ring <= r2

struct OracleObject {
  bool is_directory = false;
  std::vector<OracleAclEntry> acl;
  OracleLabel label;
  OracleBrackets brackets;
  uint32_t pages = 0;
};

struct OracleSubject {
  OraclePrincipal principal;
  OracleLabel clearance;
  int ring = 4;
  // Configuration intent, NOT derived from the live ring: only the kernel's
  // own services are trusted subjects. A kernel that treats a user process
  // as trusted diffs against this field.
  bool trusted = false;
};

// The monitor's composition: ACL grant intersected with the lattice (trusted
// subjects are exempt from the lattice, never from the ACL).
uint8_t OracleSegmentModes(const OracleObject& object, const OracleSubject& subject);
uint8_t OracleDirectoryModes(const OracleObject& object, const OracleSubject& subject);

// Per-(subject, object) address-space state the kernel should hold after a
// trace of gate calls: a usage count (repeat initiations stack) and, when
// connected, the modes granted at connect time. Revocation disconnects; the
// next initiation re-derives from current policy.
struct OracleConnection {
  uint32_t usage = 0;
  bool connected = false;
  uint8_t modes = 0;
};

// The mirror world: the protection state a trace of *successful* gate calls
// must have produced. The driver feeds it one event per successful kernel
// call; Expect* predict the access outcome of a call before it is made.
struct OracleWorld {
  std::vector<OracleSubject> subjects;
  std::vector<OracleObject> objects;  // Index == segment index in the config.
  OracleObject root;                  // The directory containing every object.
  std::vector<std::vector<OracleConnection>> conn;  // [subject][object].

  void InitConnections();

  // Predicted outcomes (access-relevant half only; argument errors are the
  // driver's business).
  bool ExpectInitiateOk(size_t p, size_t s) const;
  bool ExpectDirModifyOk(size_t p) const;
  bool ExpectSetLengthOk(size_t p, size_t s) const;

  // Events, applied when the corresponding kernel gate succeeded.
  void OnInitiate(size_t p, size_t s);
  void OnTerminate(size_t p, size_t s);
  void OnAclSet(size_t s, const OracleAclEntry& entry);
  void OnAclRemove(size_t s, const std::string& person, const std::string& project,
                   const std::string& tag);
  void OnSetBrackets(size_t s, const OracleBrackets& brackets);
  void OnSetLength(size_t p, size_t s, uint32_t pages);

 private:
  void DisconnectAll(size_t s);
};

}  // namespace multics::mc

#endif  // SRC_MODELCHECK_ORACLE_H_
