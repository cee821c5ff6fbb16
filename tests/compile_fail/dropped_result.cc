// Compile-fail fixture: a Result<T> dropped at the end of a receiver chain
// does not build. Result is [[nodiscard]], so the compiler sees through
// `k.store().Grow(2);` however the receiver is spelled.

#include "src/base/result.h"

namespace multics {

struct Store {
  Result<int> Grow(int pages);
};

struct Kernel {
  Store& store();
};

Status Caller(Kernel& k) {
  MX_ASSIGN_OR_RETURN(int pages, k.store().Grow(1));
  (void)pages;
#ifdef MX_EXPECT_FAIL
  k.store().Grow(2);
#endif
  return Status::kOk;
}

}  // namespace multics
