// Primary (core) memory: a fixed array of page frames holding words.
//
// This is the top of the three-level Multics memory hierarchy; the bulk store
// and disk live in src/mem/ with their latency models. Core references cost
// one cycle and are charged by the processor, not here.

#ifndef SRC_HW_CORE_MEMORY_H_
#define SRC_HW_CORE_MEMORY_H_

#include <cstdint>
#include <vector>

#include "src/base/log.h"
#include "src/hw/word.h"

namespace multics {

using FrameIndex = uint32_t;
inline constexpr FrameIndex kInvalidFrame = UINT32_MAX;

class CoreMemory {
 public:
  explicit CoreMemory(uint32_t frames) : data_(static_cast<size_t>(frames) * kPageWords) {}

  uint32_t frame_count() const { return static_cast<uint32_t>(data_.size() / kPageWords); }

  Word ReadWord(FrameIndex frame, uint32_t offset) const {
    CHECK_LT(frame, frame_count());
    CHECK_LT(offset, kPageWords);
    return data_[static_cast<size_t>(frame) * kPageWords + offset];
  }

  void WriteWord(FrameIndex frame, uint32_t offset, Word value) {
    CHECK_LT(frame, frame_count());
    CHECK_LT(offset, kPageWords);
    data_[static_cast<size_t>(frame) * kPageWords + offset] = value;
  }

  // Whole-page transfers used by page control and the image loader.
  void ReadPage(FrameIndex frame, std::vector<Word>& out) const {
    CHECK_LT(frame, frame_count());
    out.assign(data_.begin() + static_cast<long>(frame) * kPageWords,
               data_.begin() + static_cast<long>(frame + 1) * kPageWords);
  }

  void WritePage(FrameIndex frame, const std::vector<Word>& in) {
    CHECK_LT(frame, frame_count());
    CHECK_EQ(in.size(), kPageWords);
    std::copy(in.begin(), in.end(), data_.begin() + static_cast<long>(frame) * kPageWords);
  }

  // Sparse page images (Kernel::Snapshot): append one frame's words to
  // `out`, or load a frame from kPageWords words.
  void AppendPage(FrameIndex frame, std::vector<Word>* out) const {
    CHECK_LT(frame, frame_count());
    const auto first = data_.begin() + static_cast<long>(frame) * kPageWords;
    out->insert(out->end(), first, first + kPageWords);
  }
  void LoadPage(FrameIndex frame, const Word* words) {
    CHECK_LT(frame, frame_count());
    std::copy(words, words + kPageWords, data_.begin() + static_cast<long>(frame) * kPageWords);
  }

  void ZeroPage(FrameIndex frame) {
    CHECK_LT(frame, frame_count());
    std::fill(data_.begin() + static_cast<long>(frame) * kPageWords,
              data_.begin() + static_cast<long>(frame + 1) * kPageWords, 0);
  }

 private:
  std::vector<Word> data_;
};

}  // namespace multics

#endif  // SRC_HW_CORE_MEMORY_H_
