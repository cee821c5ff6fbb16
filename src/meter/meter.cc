#include "src/meter/meter.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/meter/host_profile.h"

namespace multics {

namespace {

// Name-sorted (name, id) index shared by counters and distributions.
auto NameLowerBound(auto& names, std::string_view name) {
  return std::lower_bound(
      names.begin(), names.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
}

}  // namespace

Meter::Meter(const SimClock* clock, size_t recorder_capacity)
    : clock_(clock), recorder_(recorder_capacity) {
  paths_.push_back(PathNode{0, "", ""});  // Path id 0: the empty root.
}

MeterId Meter::InternCounter(std::string_view name) {
  auto it = NameLowerBound(counter_names_, name);
  if (it != counter_names_.end() && it->first == name) {
    return it->second;
  }
  const MeterId id = static_cast<MeterId>(counter_cells_.size());
  counter_cells_.push_back(CounterCell{});
  counter_names_.emplace(it, std::string(name), id);
  return id;
}

MeterId Meter::InternDistribution(std::string_view name) {
  auto it = NameLowerBound(dist_names_, name);
  if (it != dist_names_.end() && it->first == name) {
    return it->second;
  }
  const MeterId id = static_cast<MeterId>(dist_cells_.size());
  dist_cells_.push_back(std::make_unique<Distribution>());
  dist_names_.emplace(it, std::string(name), id);
  return id;
}

void Meter::Emit(TraceEventKind kind, StaticName name, uint64_t arg) {
  MX_HOST_SPAN(kMeterRecord);
  if (!enabled_) {
    return;
  }
  ++kind_totals_[static_cast<size_t>(kind)];
  const auto& stack = context_->stack;
  const uint64_t enclosing = stack.empty() ? 0 : stack.back().id;
  recorder_.Push(TraceEvent{clock_->now(), kind, static_cast<uint32_t>(stack.size()),
                            name.c_str(), arg, attribution_.pid, enclosing, 0, cpu_});
}

uint32_t Meter::InternPath(uint32_t parent, const char* name) {
  const PathKey key{parent, name};
  auto it = path_ids_.find(key);
  if (it != path_ids_.end()) {
    return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(paths_.size());
  std::string full = paths_[parent].full;
  if (!full.empty()) {
    full += ';';
  }
  full += name;
  paths_.push_back(PathNode{parent, name, std::move(full)});
  path_ids_.emplace(key, id);
  return id;
}

TraceContext* Meter::OpenSpan(StaticName name, TraceEventKind kind, uint64_t arg) {
  MX_HOST_SPAN(kMeterRecord);
  if (!enabled_) {
    return nullptr;
  }
  TraceContext* ctx = context_;
  const uint64_t parent = ctx->stack.empty() ? 0 : ctx->stack.back().id;
  const uint32_t parent_path = ctx->stack.empty() ? 0 : ctx->stack.back().path_id;
  const uint64_t id = next_span_id_++;
  ctx->stack.push_back(SpanFrame{id, parent, name.c_str(), clock_->now(), 0, attribution_.pid,
                                 attribution_.ring, InternPath(parent_path, name.c_str())});
  ++kind_totals_[static_cast<size_t>(kind)];
  recorder_.Push(TraceEvent{clock_->now(), kind, static_cast<uint32_t>(ctx->stack.size()),
                            name.c_str(), arg, attribution_.pid, id, parent, cpu_});
  return ctx;
}

Cycles Meter::CloseSpan(TraceContext* ctx, TraceEventKind kind) {
  MX_HOST_SPAN(kMeterRecord);
  if (ctx == nullptr) {
    return 0;  // Opened while the meter was disabled.
  }
  CHECK(!ctx->stack.empty()) << "CloseSpan on a context with no open span";
  const SpanFrame frame = ctx->stack.back();
  const Cycles elapsed = clock_->now() - frame.start;
  CHECK(frame.child_cycles <= elapsed) << "span '" << frame.name << "' children exceed total";
  if (enabled_) {
    ++kind_totals_[static_cast<size_t>(kind)];
    recorder_.Push(TraceEvent{clock_->now(), kind, static_cast<uint32_t>(ctx->stack.size()),
                              frame.name, elapsed, frame.pid, frame.id, frame.parent, cpu_});
  }
  ctx->stack.pop_back();
  if (!ctx->stack.empty()) {
    ctx->stack.back().child_cycles += elapsed;
  }
  if (enabled_) {
    const uint32_t cell = ProfileCellFor(CellKey{frame.pid, frame.path_id, frame.ring});
    ProfileEntry& entry = profile_cells_[cell].entry;
    ++entry.count;
    entry.total += elapsed;
    entry.self += elapsed - frame.child_cycles;
    profile_view_valid_ = false;
  }
  return elapsed;
}

uint32_t Meter::ProfileCellFor(const CellKey& key) {
  if ((cell_count_ + 1) * 10 >= cell_slots_.size() * 7) {
    const size_t new_size = cell_slots_.empty() ? 64 : cell_slots_.size() * 2;
    std::vector<CellSlot> grown(new_size);
    const size_t mask = new_size - 1;
    for (const CellSlot& slot : cell_slots_) {
      if (slot.cell == kFreeCell) continue;
      size_t i = CellKeyHash{}(slot.key) & mask;
      while (grown[i].cell != kFreeCell) {
        i = (i + 1) & mask;
      }
      grown[i] = slot;
    }
    cell_slots_ = std::move(grown);
  }
  const size_t mask = cell_slots_.size() - 1;
  size_t i = CellKeyHash{}(key) & mask;
  for (;;) {
    CellSlot& slot = cell_slots_[i];
    if (slot.cell == kFreeCell) {
      slot.key = key;
      slot.cell = static_cast<uint32_t>(profile_cells_.size());
      profile_cells_.push_back(ProfileCell{key.pid, key.ring, key.path_id, {}});
      ++cell_count_;
      return slot.cell;
    }
    if (slot.key == key) {
      return slot.cell;
    }
    i = (i + 1) & mask;
  }
}

TraceContext* Meter::SetContext(TraceContext* ctx) {
  TraceContext* previous = context_;
  context_ = ctx != nullptr ? ctx : &root_context_;
  attribution_ = Attribution{context_->pid, context_->ring};
  return previous;
}

Attribution Meter::SetAttribution(Attribution a) {
  Attribution previous = attribution_;
  attribution_ = a;
  return previous;
}

void Meter::LabelProcess(uint64_t pid, std::string_view label) {
  process_labels_[pid] = std::string(label);
}

uint64_t Meter::counter(std::string_view name) const {
  auto it = NameLowerBound(counter_names_, name);
  return it != counter_names_.end() && it->first == name ? counter_cells_[it->second].value : 0;
}

const Distribution* Meter::FindDistribution(std::string_view name) const {
  auto it = NameLowerBound(dist_names_, name);
  if (it == dist_names_.end() || it->first != name) {
    return nullptr;
  }
  // A registered-but-empty distribution is indistinguishable from an
  // unregistered one, exactly as before interning (recording created the
  // entry).
  const Distribution* dist = dist_cells_[it->second].get();
  return dist->count() > 0 ? dist : nullptr;
}

std::vector<std::pair<std::string, uint64_t>> Meter::CounterSnapshot() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counter_names_.size());
  for (const auto& [name, id] : counter_names_) {
    if (counter_cells_[id].touched) {
      out.emplace_back(name, counter_cells_[id].value);
    }
  }
  return out;
}

std::vector<std::pair<std::string, const Distribution*>> Meter::DistributionSnapshot() const {
  std::vector<std::pair<std::string, const Distribution*>> out;
  out.reserve(dist_names_.size());
  for (const auto& [name, id] : dist_names_) {
    if (dist_cells_[id]->count() > 0) {
      out.emplace_back(name, dist_cells_[id].get());
    }
  }
  return out;
}

const std::map<ProfileKey, ProfileEntry>& Meter::profile() const {
  if (!profile_view_valid_) {
    profile_view_.clear();
    for (const ProfileCell& cell : profile_cells_) {
      ProfileEntry& entry =
          profile_view_[ProfileKey{cell.pid, cell.ring, paths_[cell.path_id].full}];
      entry.count += cell.entry.count;
      entry.self += cell.entry.self;
      entry.total += cell.entry.total;
    }
    profile_view_valid_ = true;
  }
  return profile_view_;
}

Cycles Meter::ProfileSelfTotal() const {
  Cycles total = 0;
  for (const ProfileCell& cell : profile_cells_) {
    total += cell.entry.self;
  }
  return total;
}

void Meter::Clear() {
  recorder_.Clear();
  kind_totals_.fill(0);
  for (CounterCell& cell : counter_cells_) {
    cell = CounterCell{};
  }
  for (const std::unique_ptr<Distribution>& dist : dist_cells_) {
    dist->Clear();
  }
  cell_slots_.clear();
  cell_count_ = 0;
  profile_cells_.clear();
  profile_view_.clear();
  profile_view_valid_ = true;
  root_context_.stack.clear();
  next_span_id_ = 1;
}

Meter::State Meter::SaveState() const {
  CHECK(root_context_.stack.empty() && context_->stack.empty()) << "meter saved with a span open";
  State state;
  state.enabled = enabled_;
  state.recorder = recorder_;
  state.kind_totals = kind_totals_;
  state.counters = counter_cells_;
  state.distributions.reserve(dist_cells_.size());
  for (const std::unique_ptr<Distribution>& dist : dist_cells_) {
    state.distributions.push_back(*dist);
  }
  state.cell_slots = cell_slots_;
  state.cell_count = cell_count_;
  state.profile_cells = profile_cells_;
  state.attribution = attribution_;
  state.cpu = cpu_;
  state.next_span_id = next_span_id_;
  state.process_labels = process_labels_;
  return state;
}

void Meter::RestoreState(const State& state) {
  CHECK(root_context_.stack.empty() && context_->stack.empty())
      << "meter restored with a span open";
  CHECK(state.counters.size() <= counter_cells_.size() &&
        state.distributions.size() <= dist_cells_.size())
      << "meter state from another meter";
  enabled_ = state.enabled;
  recorder_ = state.recorder;
  kind_totals_ = state.kind_totals;
  std::copy(state.counters.begin(), state.counters.end(), counter_cells_.begin());
  std::fill(counter_cells_.begin() + static_cast<ptrdiff_t>(state.counters.size()),
            counter_cells_.end(), CounterCell{});
  for (size_t id = 0; id < dist_cells_.size(); ++id) {
    if (id < state.distributions.size()) {
      *dist_cells_[id] = state.distributions[id];
    } else {
      dist_cells_[id]->Clear();
    }
  }
  cell_slots_ = state.cell_slots;
  cell_count_ = state.cell_count;
  profile_cells_ = state.profile_cells;
  profile_view_valid_ = false;
  attribution_ = state.attribution;
  cpu_ = state.cpu;
  next_span_id_ = state.next_span_id;
  process_labels_ = state.process_labels;
}

TraceSpan::TraceSpan(Meter* meter, StaticName name, MeterId& dist, uint64_t arg)
    : meter_(meter != nullptr && meter->enabled() ? meter : nullptr), name_(name), dist_(dist) {
  if (meter_ == nullptr) {
    return;
  }
  ctx_ = meter_->OpenSpan(name_, TraceEventKind::kSpanBegin, arg);
}

TraceSpan::~TraceSpan() {
  if (meter_ == nullptr) {
    return;
  }
  const Cycles elapsed = meter_->CloseSpan(ctx_, TraceEventKind::kSpanEnd);
  if (dist_ == kInvalidMeterId) {
    dist_ = meter_->InternDistribution(name_.c_str());
  }
  meter_->AddSample(dist_, static_cast<double>(elapsed));
}

}  // namespace multics
