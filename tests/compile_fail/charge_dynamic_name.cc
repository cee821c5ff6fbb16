// Compile-fail fixture: Machine::Charge caches its category by pointer, so
// the category must be a StaticName — the text of a std::string does not
// convert.

#include <string>

#include "src/hw/machine.h"

namespace multics {

void Spend(Machine& machine, const std::string& dynamic) {
  machine.Charge(10, "task_cpu");
#ifdef MX_EXPECT_FAIL
  machine.Charge(10, dynamic.c_str());
#else
  (void)dynamic;
#endif
}

}  // namespace multics
