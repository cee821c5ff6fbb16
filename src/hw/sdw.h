// Segment descriptor words and the per-process descriptor segment.
//
// An SDW encodes everything the hardware needs to validate one reference:
// effective permission bits (already the AND of ACL, MLS and administrative
// decisions, computed by the reference monitor at initiation time), ring
// brackets, the gate-entry count for inward calls, and the page table.

#ifndef SRC_HW_SDW_H_
#define SRC_HW_SDW_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/hw/page_table.h"
#include "src/hw/ring.h"
#include "src/hw/word.h"

namespace multics {

// Stamp source for descriptor-segment mutations, one per Machine. Every
// mutation of any descriptor segment on a machine takes a fresh stamp from
// that machine's counter, so a cached (dseg pointer, epoch) pair can never be
// revalidated by a *different* descriptor segment later allocated at the same
// address: the newcomer's epoch is newer than anything cached. Processors
// only attach descriptor segments drawing from their own machine's counter
// (Processor::AttachAddressSpace CHECKs it), so two machines in one host
// process share no mutable state. Host-side only: epochs never influence
// simulated time or metering.
class DsegEpochs {
 public:
  uint64_t Next() { return ++last_; }

 private:
  uint64_t last_ = 0;
};

struct SegmentDescriptor {
  bool valid = false;            // When false, any reference takes a segment fault.
  PageTable* page_table = nullptr;
  uint32_t length_pages = 0;

  RingBrackets brackets;
  bool read = false;
  bool write = false;
  bool execute = false;
  bool gate = false;             // Inward calls allowed, to entries < gate_entries.
  uint32_t gate_entries = 0;

  uint64_t uid = 0;              // File-system UID, for fault handlers and audit.
};

// The hardware-visible address space of one process: segment number -> SDW.
//
// Real Multics paged the descriptor segment itself, and so does this one: a
// two-level table of kDsegPages pages of kSdwsPerPage SDWs each. A page is
// allocated on its first Set/GetMutable; an absent page reads as the invalid
// SDW. A process that knows a few dozen segments therefore holds one or two
// pages (a few kB) instead of all 4096 SDWs.
class DescriptorSegment {
 public:
  static constexpr SegNo kSdwsPerPage = 64;
  static constexpr SegNo kDsegPages = kMaxSegments / kSdwsPerPage;

  explicit DescriptorSegment(DsegEpochs* epochs) : epochs_(epochs), epoch_(epochs->Next()) {}

  // Copies are deep (the copy owns its own pages) and take a fresh epoch, so
  // a walk cached on the source is never served from the copy.
  DescriptorSegment(const DescriptorSegment& other)
      : epochs_(other.epochs_), epoch_(other.epochs_->Next()) {
    for (SegNo p = 0; p < kDsegPages; ++p) {
      if (other.pages_[p] != nullptr) {
        pages_[p] = std::make_unique<Page>(*other.pages_[p]);
      }
    }
  }

  // The allocated pages by value, in page order (Kernel::Snapshot): no
  // epoch and no tie to the machine. The page-table addresses inside are the
  // saver's; after RestoreImage only their non-nullness means anything, until
  // RebindPageTables looks them up anew.
  using Image = std::vector<std::pair<SegNo, std::array<SegmentDescriptor, kSdwsPerPage>>>;
  Image SaveImage() const {
    Image image;
    for (SegNo p = 0; p < kDsegPages; ++p) {
      if (pages_[p] != nullptr) {
        image.emplace_back(p, *pages_[p]);
      }
    }
    return image;
  }
  // Pages absent from `image` are dropped; the epoch is fresh, so no
  // processor cache keyed on this segment survives.
  void RestoreImage(const Image& image) {
    auto next = image.begin();
    for (SegNo p = 0; p < kDsegPages; ++p) {
      if (next == image.end() || next->first != p) {
        pages_[p].reset();
      } else if (pages_[p] == nullptr) {
        pages_[p] = std::make_unique<Page>((next++)->second);
      } else {
        *pages_[p] = (next++)->second;
      }
    }
    epoch_ = epochs_->Next();
  }

  // Re-resolves every attached page table through `lookup(uid)`.
  template <typename Fn>
  void RebindPageTables(Fn&& lookup) {
    for (auto& page : pages_) {
      if (page == nullptr) continue;
      for (SegmentDescriptor& sdw : *page) {
        if (sdw.page_table != nullptr) {
          sdw.page_table = lookup(sdw.uid);
        }
      }
    }
    epoch_ = epochs_->Next();
  }

  const SegmentDescriptor& Get(SegNo segno) const {
    static const SegmentDescriptor kInvalid{};
    if (segno >= kMaxSegments) {
      return kInvalid;
    }
    const Page* page = pages_[segno / kSdwsPerPage].get();
    return page == nullptr ? kInvalid : (*page)[segno % kSdwsPerPage];
  }

  // Hands out a mutable SDW, so the caller may change permissions or unhook
  // the page table without going through Set(); bump the epoch up front.
  // GetMutable sits on revocation/deactivation paths, never reference paths,
  // so the conservative bump is cheap.
  SegmentDescriptor* GetMutable(SegNo segno) {
    if (segno >= kMaxSegments) {
      return nullptr;
    }
    epoch_ = epochs_->Next();
    return &Slot(segno);
  }

  void Set(SegNo segno, const SegmentDescriptor& sdw) {
    if (segno < kMaxSegments) {
      Slot(segno) = sdw;
      epoch_ = epochs_->Next();
    }
  }

  // Never allocates: an absent page already reads as invalid.
  void Clear(SegNo segno) {
    if (segno < kMaxSegments) {
      if (Page* page = pages_[segno / kSdwsPerPage].get()) {
        (*page)[segno % kSdwsPerPage] = SegmentDescriptor{};
      }
      epoch_ = epochs_->Next();
    }
  }

  // Changes whenever any SDW in this segment may have changed. Processors
  // key their cached walks on (this, epoch()): any mutation — permission
  // narrowing, page-table unhook, revocation — invalidates every cached walk
  // immediately, so a cached translation can never widen access (the PR 5
  // revocation tests certify this).
  uint64_t epoch() const { return epoch_; }
  // The counter this segment draws its epochs from (its machine's).
  const DsegEpochs* epochs() const { return epochs_; }

  // Visits every valid SDW as fn(segno, sdw), in ascending segno order,
  // skipping absent pages.
  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    for (SegNo p = 0; p < kDsegPages; ++p) {
      const Page* page = pages_[p].get();
      if (page == nullptr) continue;
      for (SegNo i = 0; i < kSdwsPerPage; ++i) {
        const SegmentDescriptor& sdw = (*page)[i];
        if (sdw.valid) {
          fn(static_cast<SegNo>(p * kSdwsPerPage + i), sdw);
        }
      }
    }
  }

  // Number of valid SDWs; a structural metric some benches report.
  uint32_t CountValid() const {
    uint32_t n = 0;
    ForEachValid([&n](SegNo, const SegmentDescriptor&) { ++n; });
    return n;
  }

  // Pages currently allocated (host memory actually held).
  uint32_t pages_allocated() const {
    uint32_t n = 0;
    for (const auto& page : pages_) {
      if (page != nullptr) ++n;
    }
    return n;
  }

 private:
  using Page = std::array<SegmentDescriptor, kSdwsPerPage>;

  SegmentDescriptor& Slot(SegNo segno) {
    std::unique_ptr<Page>& page = pages_[segno / kSdwsPerPage];
    if (page == nullptr) {
      page = std::make_unique<Page>();
    }
    return (*page)[segno % kSdwsPerPage];
  }

  DsegEpochs* epochs_;
  std::array<std::unique_ptr<Page>, kDsegPages> pages_;
  uint64_t epoch_;
};

// Per-process address-space cost stays a page directory, not 4096 SDWs.
static_assert(sizeof(DescriptorSegment) <= 1024);
static_assert(kMaxSegments % DescriptorSegment::kSdwsPerPage == 0);

}  // namespace multics

#endif  // SRC_HW_SDW_H_
