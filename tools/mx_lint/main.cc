// mx_lint — source-level static certifier for the kernel tree.
//
//   mx_lint [--json] [REPO_ROOT]
//
// Scans REPO_ROOT/src (default: current directory) for layering violations,
// census gates no gate body enters, and the other rules in lint.h. Exit
// status: 0 clean, 1 findings, 2 usage error.

#include <cstdio>
#include <cstring>
#include <string>

#include "tools/mx_lint/lint.h"

int main(int argc, char** argv) {
  bool json = false;
  std::string root = ".";
  bool have_root = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "mx_lint: unknown option %s\nusage: mx_lint [--json] [REPO_ROOT]\n",
                   argv[i]);
      return 2;
    } else if (!have_root) {
      root = argv[i];
      have_root = true;
    } else {
      std::fprintf(stderr, "usage: mx_lint [--json] [REPO_ROOT]\n");
      return 2;
    }
  }

  const multics::lint::Report report = multics::lint::RunLint(root);
  std::fputs((json ? report.ToJson() : report.ToString()).c_str(), stdout);
  return report.clean() ? 0 : 1;
}
