#include "tools/mx_lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace multics::lint {

namespace fs = std::filesystem;

namespace {

// --- Small utilities --------------------------------------------------------

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int LineOf(const std::string& text, size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + static_cast<long>(pos), '\n'));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Repo-relative path with forward slashes, for stable report output.
std::string RelPath(const fs::path& root, const fs::path& file) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  return (ec ? file : rel).generic_string();
}

// All .h/.cc files under `dir`, sorted for deterministic reports.
std::vector<fs::path> SourceFiles(const fs::path& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc") files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

void Add(Report* report, std::string rule, std::string file, int line, std::string message) {
  report->findings.push_back(
      Finding{std::move(rule), std::move(file), line, std::move(message)});
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& text) {
  std::string out = text;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar } state = State::kCode;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

// --- 1. Layering ------------------------------------------------------------

namespace {

// The layering DAG from docs/ARCHITECTURE.md, as "module -> modules whose
// headers it may include directly". The sets are the transitive closure of
// the CMake link graph, with two deliberate tightenings:
//   * src/inject appears in no other module's set: the kernel never sees the
//     concrete injector, only the seam in src/hw/injection.h;
//   * src/userring omits mem/net/proc/init: code that left the kernel talks
//     to it through the gate surface (src/core) and the data types it is
//     handed (src/fs, src/link), never to kernel internals.
const std::map<std::string, std::set<std::string>>& AllowedIncludes() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"base", {"base"}},
      {"meter", {"meter", "base"}},
      {"mls", {"mls", "base"}},
      {"hw", {"hw", "meter", "base"}},
      {"mem", {"mem", "hw", "meter", "base"}},
      {"link", {"link", "hw", "meter", "base"}},
      {"net", {"net", "hw", "meter", "base"}},
      {"fs", {"fs", "mem", "mls", "hw", "meter", "base"}},
      {"proc", {"proc", "fs", "mem", "mls", "hw", "meter", "base"}},
      {"core",
       {"core", "proc", "fs", "link", "net", "mem", "mls", "hw", "meter", "base"}},
      {"userring", {"userring", "core", "link", "fs", "mls", "hw", "meter", "base"}},
      // The session engine is a pure gate-surface client: it may talk to the
      // kernel's gate interface (src/core) and the de-privileged answering
      // service (src/userring), never to kernel internals — the workload
      // must exercise the certified surface, not bypass it.
      {"session", {"session", "userring", "core", "base"}},
      {"init",
       {"init", "userring", "core", "proc", "fs", "link", "net", "mem", "mls", "hw",
        "meter", "base"}},
      {"inject", {"inject", "fs", "mem", "mls", "hw", "meter", "base"}},
      // The static certifier examines the whole kernel, so it may read every
      // kernel header — but, like inject, nothing may include *it*, and it
      // must not depend on the injector or the outer rings.
      {"audit_static",
       {"audit_static", "core", "proc", "fs", "link", "net", "mem", "mls", "hw",
        "meter", "base"}},
      // The model checker drives the kernel and reuses the certifier's passes
      // and witness formatter; nothing may include *it*. Its oracle half is
      // held to a far stricter rule than the layering DAG: see
      // CheckOracleConfinement.
      {"modelcheck",
       {"modelcheck", "audit_static", "core", "proc", "fs", "link", "net", "mem",
        "mls", "hw", "meter", "base"}},
  };
  return kAllowed;
}

// Module of a repo-relative path "src/<module>/...", or "" if not in src/.
std::string ModuleOf(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  const size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

}  // namespace

void CheckLayering(const std::string& repo_root, Report* report) {
  const fs::path root(repo_root);
  const fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    Add(report, "layering", "src", 0, "no src/ directory under lint root " + repo_root);
    return;
  }
  static const std::regex kInclude("#include\\s+\"(src/([A-Za-z0-9_]+)/[^\"]+)\"");
  for (const fs::path& file : SourceFiles(src)) {
    const std::string rel = RelPath(root, file);
    const std::string module = ModuleOf(rel);
    ++report->files_scanned;
    const auto allowed_it = AllowedIncludes().find(module);
    if (allowed_it == AllowedIncludes().end()) {
      Add(report, "layering", rel, 0,
          "module src/" + module + " is not in the layering DAG (docs/ARCHITECTURE.md); "
          "add it to AllowedIncludes() in tools/mx_lint/lint.cc deliberately");
      continue;
    }
    const std::string text = ReadFile(file);
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kInclude);
         it != std::sregex_iterator(); ++it) {
      const std::string target = (*it)[2].str();
      // The one file-level exemption from the DAG: the host profiler header
      // is std-only (no kernel types, no simulated state — host clock and
      // its own counters only), so hot paths in every layer may carry
      // MX_HOST_SPAN instrumentation without src/base growing a real edge
      // to src/meter. The host-span rule compensates by banning the macro
      // from the reference-monitor modules entirely.
      if ((*it)[1].str() == "src/meter/host_profile.h") {
        continue;
      }
      if (!allowed_it->second.contains(target)) {
        Add(report, "layering", rel, LineOf(text, static_cast<size_t>(it->position())),
            "src/" + module + " must not include \"" + (*it)[1].str() +
                "\": src/" + target + " is above it in the layering DAG");
      }
    }
  }
}

// --- 2. Gate prologues ------------------------------------------------------

void CheckGatePrologues(const std::string& repo_root, Report* report) {
  const fs::path root(repo_root);
  // The census is the X-macro table in src/meter (span_census.h): one
  // X(kEnumerator, "name", category, presence) row per gate (the span rows
  // after it have no category, so they do not match). The compiler
  // already rejects a prologue naming anything else (MX_ENTER_GATE takes a
  // GateId); what it cannot see is a census row no gate body enters — an
  // entry point registered in the table with no audited implementation.
  static const std::regex kCensusRow("\\bX\\(\\s*(k[A-Za-z0-9]+)\\s*,\\s*\"([a-z0-9_]+)\"\\s*,");
  static const std::regex kGateRef("\\bGateId::(k[A-Za-z0-9]+)\\b");
  std::map<std::string, std::pair<std::string, std::string>> census;  // id -> (name, file)
  std::set<std::string> referenced;
  for (const fs::path& file : SourceFiles(root / "src" / "meter")) {
    const std::string raw = ReadFile(file);
    for (auto it = std::sregex_iterator(raw.begin(), raw.end(), kCensusRow);
         it != std::sregex_iterator(); ++it) {
      census.emplace((*it)[1].str(), std::make_pair((*it)[2].str(), RelPath(root, file)));
    }
  }
  for (const fs::path& file : SourceFiles(root / "src" / "core")) {
    if (file.extension() != ".cc") continue;
    const std::string text = StripCommentsAndStrings(ReadFile(file));
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kGateRef);
         it != std::sregex_iterator(); ++it) {
      referenced.insert((*it)[1].str());
    }
  }
  if (census.empty()) {
    Add(report, "gate-prologue", "src/meter", 0,
        "no gate census found (no X(kGate, \"name\", ...) rows in src/meter)");
    return;
  }
  for (const auto& [id, where] : census) {
    if (!referenced.contains(id)) {
      Add(report, "gate-prologue", where.second, 0,
          "gate \"" + where.first + "\" is in the census but no src/core body names GateId::" +
              id + ": an unauditable entry point");
    }
  }
}

// --- 3. Mutable counters ----------------------------------------------------

void CheckMutableCounters(const std::string& repo_root, Report* report) {
  const fs::path root(repo_root);
  const fs::path core = root / "src" / "core";
  if (!fs::is_directory(core)) return;  // Fixture trees without src/core are fine.

  // A `mutable` member of arithmetic type: state mutated from const methods.
  // Pointers and class types are left alone (caches and handles have their
  // own review story); plain counters and flags are categorically rejected.
  static const std::regex kMutableArith(
      "\\bmutable\\s+(?:u?int(?:8|16|32|64)?_t|unsigned(?:\\s+(?:int|long|char|short))?|"
      "int|long(?:\\s+long)?|short|size_t|bool|double|float|char|Cycles)\\s+"
      "([A-Za-z_][A-Za-z0-9_]*)");
  for (const fs::path& file : SourceFiles(core)) {
    const std::string rel = RelPath(root, file);
    const std::string text = StripCommentsAndStrings(ReadFile(file));
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kMutableArith);
         it != std::sregex_iterator(); ++it) {
      Add(report, "mutable-counter", rel, LineOf(text, static_cast<size_t>(it->position())),
          "mutable arithmetic member `" + (*it)[1].str() +
              "` in src/core: a counter written from const methods is hidden kernel "
              "state and an unlocked write on the multiprocessor; drop the const "
              "façade instead");
    }
  }
}

// --- 4. Lock-order documentation --------------------------------------------

namespace {

// Lock table rows in docs/ARCHITECTURE.md, between the markers
// `<!-- mx:lock-hierarchy:begin -->` and `<!-- mx:lock-hierarchy:end -->`:
// `| `name` | level | ... |`.
std::map<std::string, int> DocLockTable(const std::string& text, bool* found) {
  std::map<std::string, int> table;
  const size_t begin = text.find("mx:lock-hierarchy:begin");
  const size_t end = text.find("mx:lock-hierarchy:end");
  *found = begin != std::string::npos && end != std::string::npos && begin < end;
  if (!*found) return table;
  const std::string region = text.substr(begin, end - begin);
  static const std::regex kRow("\\|\\s*`([a-z_]+)`\\s*\\|\\s*([0-9]+)\\s*\\|");
  for (auto it = std::sregex_iterator(region.begin(), region.end(), kRow);
       it != std::sregex_iterator(); ++it) {
    table[(*it)[1].str()] = std::stoi((*it)[2].str());
  }
  return table;
}

// `{"name", level}` rows of kLockHierarchy in src/hw/sim_lock.h.
std::map<std::string, int> CodeLockTable(const std::string& text, bool* found) {
  std::map<std::string, int> table;
  // Anchor on the array declarator, not the bare name — the header's prose
  // comments mention kLockHierarchy well before the table itself.
  const size_t decl = text.find("kLockHierarchy[]");
  *found = decl != std::string::npos;
  if (!*found) return table;
  const size_t open = text.find('{', decl);
  const size_t close = text.find("};", decl);
  if (open == std::string::npos || close == std::string::npos) return table;
  const std::string region = text.substr(open, close - open);
  static const std::regex kRow("\\{\\s*\"([a-z_]+)\"\\s*,\\s*([0-9]+)\\s*\\}");
  for (auto it = std::sregex_iterator(region.begin(), region.end(), kRow);
       it != std::sregex_iterator(); ++it) {
    table[(*it)[1].str()] = std::stoi((*it)[2].str());
  }
  return table;
}

}  // namespace

void CheckLockOrder(const std::string& repo_root, Report* report) {
  const fs::path root(repo_root);
  const fs::path doc_path = root / "docs" / "ARCHITECTURE.md";
  const fs::path code_path = root / "src" / "hw" / "sim_lock.h";
  bool doc_found = false;
  bool code_found = false;
  std::map<std::string, int> doc;
  std::map<std::string, int> code;
  if (fs::is_regular_file(doc_path)) {
    doc = DocLockTable(ReadFile(doc_path), &doc_found);
  }
  if (fs::is_regular_file(code_path)) {
    code = CodeLockTable(ReadFile(code_path), &code_found);
  }
  // Trees with neither side (the lint fixtures, pre-multiprocessor checkouts)
  // have nothing to certify. A tree with only one side is broken: the
  // documented DAG and the enforced DAG must travel together.
  if (!doc_found && !code_found) return;
  const std::string doc_rel = RelPath(root, doc_path);
  const std::string code_rel = RelPath(root, code_path);
  if (!code_found) {
    Add(report, "lock-order", doc_rel, 0,
        "docs/ARCHITECTURE.md documents a lock hierarchy but src/hw/sim_lock.h has no "
        "kLockHierarchy table to certify it against");
    return;
  }
  if (!doc_found) {
    Add(report, "lock-order", code_rel, 0,
        "src/hw/sim_lock.h defines kLockHierarchy but docs/ARCHITECTURE.md has no "
        "mx:lock-hierarchy table documenting it");
    return;
  }
  for (const auto& [name, level] : code) {
    auto it = doc.find(name);
    if (it == doc.end()) {
      Add(report, "lock-order", doc_rel, 0,
          "lock `" + name + "` (level " + std::to_string(level) +
              ") is in kLockHierarchy but missing from the documented hierarchy table");
    } else if (it->second != level) {
      Add(report, "lock-order", doc_rel, 0,
          "lock `" + name + "` is level " + std::to_string(level) +
              " in kLockHierarchy but documented as level " + std::to_string(it->second));
    }
  }
  for (const auto& [name, level] : doc) {
    if (!code.contains(name)) {
      Add(report, "lock-order", doc_rel, 0,
          "lock `" + name + "` (level " + std::to_string(level) +
              ") is documented but absent from kLockHierarchy in src/hw/sim_lock.h");
    }
  }
}

// --- 5. Host spans in the reference monitor ---------------------------------

void CheckHostSpans(const std::string& repo_root, Report* report) {
  const fs::path root(repo_root);
  // Host-side timing probes are banned inside the reference monitor proper:
  // src/fs (access decisions) and src/mls (label comparisons). A wall-clock
  // span around an access check is an observation point correlated with
  // protected decisions that the certification argument never reviews — and
  // the profiler's layering exemption (above) would otherwise make adding
  // one frictionless. Paging, scheduling, and gate dispatch stay
  // instrumentable; the policy code does not.
  static const std::regex kSpanToken("\\b(MX_HOST_SPAN|HostSpan)\\b");
  for (const char* module : {"fs", "mls"}) {
    const fs::path dir = root / "src" / module;
    if (!fs::is_directory(dir)) continue;
    for (const fs::path& file : SourceFiles(dir)) {
      const std::string rel = RelPath(root, file);
      const std::string raw = ReadFile(file);
      if (raw.find("src/meter/host_profile.h") != std::string::npos) {
        Add(report, "host-span", rel, 0,
            "src/" + std::string(module) +
                " must not include the host profiler: host-time observation "
                "inside the reference monitor is outside the review argument");
      }
      const std::string text = StripCommentsAndStrings(raw);
      for (auto it = std::sregex_iterator(text.begin(), text.end(), kSpanToken);
           it != std::sregex_iterator(); ++it) {
        Add(report, "host-span", rel, LineOf(text, static_cast<size_t>(it->position())),
            (*it)[1].str() + " in src/" + module +
                ": no host-side timing instrumentation in the reference monitor "
                "(see the layering exemption for src/meter/host_profile.h)");
      }
    }
  }
}

// --- 6. Oracle confinement --------------------------------------------------

void CheckOracleConfinement(const std::string& repo_root, Report* report) {
  const fs::path root(repo_root);
  const fs::path dir = root / "src" / "modelcheck";
  if (!fs::is_directory(dir)) return;  // Fixture trees without the module are fine.
  // The differential oracle is only worth diffing against if it is
  // *independent*: src/modelcheck/oracle.{h,cc} must re-derive the access
  // rules from the paper, not inherit them from a kernel header. The only
  // include the pair may share with the tree is the oracle's own header —
  // anything else (quoted or <src/...>) is a confinement breach. A
  // modelcheck module without the oracle fails too: the rule must not pass
  // vacuously after a rename.
  bool oracle_seen = false;
  static const std::regex kAnyInclude("#include\\s+([\"<])([^\">]+)[\">]");
  for (const char* name : {"oracle.h", "oracle.cc"}) {
    const fs::path file = dir / name;
    if (!fs::is_regular_file(file)) continue;
    oracle_seen = true;
    const std::string rel = RelPath(root, file);
    // Raw text, like CheckLayering: the include path lives inside a string
    // literal that StripCommentsAndStrings would blank out.
    const std::string text = ReadFile(file);
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kAnyInclude);
         it != std::sregex_iterator(); ++it) {
      const std::string target = (*it)[2].str();
      if (target == "src/modelcheck/oracle.h") continue;
      const bool quoted = (*it)[1].str() == "\"";
      if (quoted || target.rfind("src/", 0) == 0) {
        Add(report, "oracle-confinement", rel,
            LineOf(text, static_cast<size_t>(it->position())),
            "the differential oracle must stay std-only: #include \"" + target +
                "\" could let it inherit the very kernel bug it exists to catch");
      }
    }
  }
  if (!oracle_seen) {
    Add(report, "oracle-confinement", "src/modelcheck", 0,
        "src/modelcheck exists but has no oracle.h/oracle.cc: the differential "
        "oracle the confinement rule certifies is missing");
  }
}

// --- 7. Hot-path containers --------------------------------------------------

void CheckHotPathContainers(const std::string& repo_root, Report* report) {
  const fs::path root(repo_root);
  // The sim-core speed program flattened the event queue, the lock timeline,
  // and the meter cells into array-indexed structures; this rule keeps them
  // that way. Inside an `mx:hot-path:begin` / `mx:hot-path:end` region a
  // node-based or type-erased member (std::map, std::multimap, std::function)
  // is a regression: per-element allocation and pointer chasing on exactly
  // the paths the flattening paid for. The three files the program converted
  // must each carry at least one marked region — a deleted marker must fail,
  // not silently stop guarding.
  static const char* kFiles[] = {"src/base/event_queue.h", "src/hw/sim_lock.h",
                                 "src/meter/meter.h"};
  static const std::regex kBanned("\\bstd::(map|multimap|function)\\s*<");
  // Trees with none of the guarded files (the lint fixtures) have nothing to
  // check. A tree with some of them is the real kernel, and there every
  // guarded file must exist and carry its marked region.
  int present = 0;
  for (const char* rel : kFiles) {
    if (fs::is_regular_file(root / rel)) ++present;
  }
  if (present == 0) return;
  for (const char* rel : kFiles) {
    const fs::path file = root / rel;
    if (!fs::is_regular_file(file)) {
      Add(report, "hot-path-containers", rel, 0,
          "expected hot-path file is missing (the container rule guards it)");
      continue;
    }
    const std::string raw = ReadFile(file);
    // Markers live in comments, so they are located in the raw text; the
    // banned-token scan runs on the stripped text so a comment *mentioning*
    // std::map does not trip the rule. Stripping preserves line structure,
    // so the two texts stay line-aligned.
    const std::string stripped = StripCommentsAndStrings(raw);
    std::istringstream raw_lines(raw);
    std::istringstream stripped_lines(stripped);
    std::string raw_line;
    std::string stripped_line;
    bool open = false;
    int open_line = 0;
    int regions = 0;
    for (int line = 1; std::getline(raw_lines, raw_line); ++line) {
      std::getline(stripped_lines, stripped_line);
      if (raw_line.find("mx:hot-path:begin") != std::string::npos) {
        if (open) {
          Add(report, "hot-path-containers", rel, line,
              "nested mx:hot-path:begin (previous region opened at line " +
                  std::to_string(open_line) + " is still open)");
        }
        open = true;
        open_line = line;
        ++regions;
        continue;
      }
      if (raw_line.find("mx:hot-path:end") != std::string::npos) {
        if (!open) {
          Add(report, "hot-path-containers", rel, line,
              "mx:hot-path:end without a matching mx:hot-path:begin");
        }
        open = false;
        continue;
      }
      if (!open) continue;
      std::smatch match;
      if (std::regex_search(stripped_line, match, kBanned)) {
        Add(report, "hot-path-containers", rel, line,
            "std::" + match[1].str() +
                " inside an mx:hot-path region: node-based and type-erased "
                "members are banned from the flattened hot paths");
      }
    }
    if (open) {
      Add(report, "hot-path-containers", rel, open_line,
          "mx:hot-path:begin is never closed (missing mx:hot-path:end)");
    }
    if (regions == 0) {
      Add(report, "hot-path-containers", rel, 0,
          "no mx:hot-path region: the container rule must not pass vacuously "
          "(the marked region was deleted?)");
    }
  }
}

// --- Report -----------------------------------------------------------------

int Report::CountForRule(const std::string& rule) const {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::string Report::ToString() const {
  std::ostringstream out;
  out << "mx_lint: " << files_scanned << " files scanned, " << findings.size()
      << " finding(s)\n";
  for (const Finding& f : findings) {
    out << "  [" << f.rule << "] " << f.file;
    if (f.line > 0) out << ":" << f.line;
    out << ": " << f.message << "\n";
  }
  return out.str();
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"mx-lint-v1\",\n  \"files_scanned\": " << files_scanned
      << ",\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i ? "," : "") << "\n    {\"rule\": \"" << JsonEscape(f.rule)
        << "\", \"file\": \"" << JsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"message\": \"" << JsonEscape(f.message) << "\"}";
  }
  out << (findings.empty() ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

Report RunLint(const std::string& repo_root) {
  Report report;
  CheckLayering(repo_root, &report);
  CheckGatePrologues(repo_root, &report);
  CheckMutableCounters(repo_root, &report);
  CheckLockOrder(repo_root, &report);
  CheckHostSpans(repo_root, &report);
  CheckOracleConfinement(repo_root, &report);
  CheckHotPathContainers(repo_root, &report);
  return report;
}

}  // namespace multics::lint
