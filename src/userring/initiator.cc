#include "src/userring/initiator.h"

#include "src/fs/pathname.h"

namespace multics {
namespace {

constexpr int kMaxLinkDepth = 8;

// User-ring CPU cost of processing one pathname component.
constexpr Cycles kComponentCycles = 80;

}  // namespace

Result<SegNo> UserInitiator::InitiatePath(const std::string& path) {
  return Walk(path, kMaxLinkDepth);
}

Result<SegNo> UserInitiator::InitiateDirPath(const std::string& path) {
  return Walk(path, kMaxLinkDepth);
}

Result<SegNo> UserInitiator::Walk(const std::string& path_text, int depth) {
  if (depth <= 0) {
    return Status::kLinkageFault;
  }
  MX_ASSIGN_OR_RETURN(Path path, Path::Parse(path_text));
  MX_ASSIGN_OR_RETURN(SegNo current, kernel_->RootDir(*process_));
  if (path.IsRoot()) {
    return current;
  }
  for (size_t i = 0; i < path.components.size(); ++i) {
    kernel_->machine().Charge(kComponentCycles, ChargeKind::kUserRingPathWalk);
    ++components_walked_;
    auto result = kernel_->Initiate(*process_, current, path.components[i]);
    // The intermediate directory handle is no longer needed; terminating it
    // keeps the KST from silting up with every directory ever walked.
    if (i > 0) {
      (void)kernel_->Terminate(*process_, current);
    }
    if (!result.ok()) {
      return result.status();
    }
    if (result->is_link) {
      // Splice the remaining components onto the link target and restart —
      // in the user ring, with the user's own cycles.
      ++links_chased_;
      std::string spliced = result->link_target;
      for (size_t j = i + 1; j < path.components.size(); ++j) {
        spliced += ">" + path.components[j];
      }
      return Walk(spliced, depth - 1);
    }
    current = result->segno;
  }
  return current;
}

}  // namespace multics
