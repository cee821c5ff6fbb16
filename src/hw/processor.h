// The simulated processor: performs every access check the 6180 hardware
// made (SDW validity, bounds, ring brackets, permission bits, gate entries),
// takes segment and page faults through the attached FaultSink, maintains
// used/modified bits, and charges cycles to the machine clock.
//
// The processor supports both ring implementations the paper contrasts:
//   * RingMode::kHardware6180 — cross-ring calls cost the same as intra-ring
//     calls (the ring register is updated by the call instruction);
//   * RingMode::kSoftware645 — every cross-ring transfer traps to a simulated
//     supervisor routine that validates the gate, regenerates the descriptor
//     segment, and copies arguments, at a large multiple of the plain call.

#ifndef SRC_HW_PROCESSOR_H_
#define SRC_HW_PROCESSOR_H_

#include <cstdint>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/hw/fault.h"
#include "src/hw/machine.h"
#include "src/hw/sdw.h"
#include "src/hw/word.h"

namespace multics {

class Processor {
 public:
  explicit Processor(Machine* machine);

  // Wires the processor to a process: its address space and the ring it runs
  // in. The kernel swaps these on a process switch. The descriptor segment
  // must draw its epochs from this processor's machine (CHECKed), so a cached
  // walk can only ever be compared against epochs of the same stream.
  void AttachAddressSpace(DescriptorSegment* dseg);
  DescriptorSegment* address_space() const { return dseg_; }
  // nullptr detaches to the built-in sink that resolves nothing.
  void SetFaultSink(FaultSink* sink) { faults_ = sink != nullptr ? sink : &null_sink_; }
  void SetRing(RingNumber ring) { ring_ = ring; }
  RingNumber ring() const { return ring_; }

  // Whether outward calls (caller below the write bracket) are permitted;
  // the 6180 hardware did not support them and neither do we by default.
  void set_allow_outward_calls(bool allow) { allow_outward_calls_ = allow; }

  // Data references. Each successful reference costs one memory cycle and
  // may first take (and resolve) segment/page faults.
  Result<Word> Read(SegNo segno, WordOffset offset);
  Status Write(SegNo segno, WordOffset offset, Word value);

  // Instruction-fetch access check (execute permission in the current ring).
  Status Fetch(SegNo segno, WordOffset offset);

  // Procedure call into `target` at `entry_offset`, carrying `arg_words`
  // words of arguments. Performs the ring-bracket analysis: intra-ring calls
  // transfer directly; inward calls require a gate entry and switch rings.
  // On success the processor is left executing in the target ring; Return()
  // restores the caller's ring.
  Status Call(SegNo target, WordOffset entry_offset, uint32_t arg_words = 0);
  Status Return();

  uint32_t call_depth() const { return static_cast<uint32_t>(ring_stack_.size()); }

  // The simulated stack is finite, like the real one; exceeding it is a
  // fault delivered to the program, not a kernel problem.
  static constexpr uint32_t kMaxCallDepth = 64;

  // Fault/operation counters for the experiment harnesses.
  uint64_t segment_faults() const { return segment_faults_; }
  uint64_t page_faults() const { return page_faults_; }
  uint64_t intra_ring_calls() const { return intra_ring_calls_; }
  uint64_t cross_ring_calls() const { return cross_ring_calls_; }

  Machine* machine() const { return machine_; }

  // Register and counter state (see ProcessorState in machine.h).
  using State = ProcessorState;
  State SaveState() const {
    return State{.ring = ring_,
                 .allow_outward_calls = allow_outward_calls_,
                 .ring_stack = ring_stack_,
                 .segment_faults = segment_faults_,
                 .page_faults = page_faults_,
                 .intra_ring_calls = intra_ring_calls_,
                 .cross_ring_calls = cross_ring_calls_};
  }
  void RestoreState(const State& state) {
    ring_ = state.ring;
    allow_outward_calls_ = state.allow_outward_calls;
    ring_stack_ = state.ring_stack;
    segment_faults_ = state.segment_faults;
    page_faults_ = state.page_faults;
    intra_ring_calls_ = state.intra_ring_calls;
    cross_ring_calls_ = state.cross_ring_calls;
  }

 private:
  // Validates a reference and returns the frame holding the word, resolving
  // segment and page faults along the way.
  Result<FrameIndex> Resolve(SegNo segno, WordOffset offset, AccessMode mode);

  // Cached successful descriptor walk, one per AccessMode. A hit skips the
  // SDW fetch, bounds, ring-bracket and permission checks — they were all
  // validated for this exact (descriptor segment, epoch, segno, ring, mode)
  // tuple — and goes straight to the PTE. The guard makes staleness
  // impossible rather than unlikely: any SDW mutation bumps the descriptor
  // segment's epoch (sdw.h), so revoked or narrowed access always falls back
  // to the full walk; PTE state (present/used/modified) is never cached, it
  // is re-read per reference. Charges and meter emissions on the hit path
  // are byte-identical to the slow path's success tail.
  struct WalkCache {
    const DescriptorSegment* dseg = nullptr;
    uint64_t epoch = 0;
    SegNo segno = 0;
    RingNumber ring = 0;
    PageTable* page_table = nullptr;
    uint32_t length_pages = 0;
  };

  Status CheckPermissionBits(const SegmentDescriptor& sdw, AccessMode mode) const;

  Machine* machine_;
  DescriptorSegment* dseg_ = nullptr;
  NullFaultSink null_sink_;
  FaultSink* faults_ = &null_sink_;
  RingNumber ring_ = kRingUser;
  bool allow_outward_calls_ = false;

  // Ring of the caller for each frame of the (simulated) call stack.
  std::vector<RingNumber> ring_stack_;

  WalkCache walk_cache_[4];  // Indexed by AccessMode.

  uint64_t segment_faults_ = 0;
  uint64_t page_faults_ = 0;
  uint64_t intra_ring_calls_ = 0;
  uint64_t cross_ring_calls_ = 0;
};

}  // namespace multics

#endif  // SRC_HW_PROCESSOR_H_
