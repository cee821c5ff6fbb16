#include "src/net/device_io.h"

namespace multics {
namespace {

constexpr Cycles kTtyCharCycles = 50;
constexpr Cycles kCardCycles = 400;
constexpr Cycles kPrintLineCycles = 300;
constexpr Cycles kTapeRecordCycles = 800;
constexpr uint32_t kCardColumns = 80;
constexpr uint32_t kPrinterColumns = 136;
constexpr uint32_t kLinesPerPage = 60;

// Consults the injector for one peripheral transfer and retries transient
// faults in place, charging each retry to "fault_recovery". Returns the
// surviving fault (kOk if the transfer eventually went through).
Status ConsultPeripheral(Machine* machine, InjectSite site, const char* name,
                         uint64_t detail, Cycles retry_cost) {
  if (machine->injector() == nullptr) {
    return Status::kOk;
  }
  Status fault = Status::kOk;
  for (int attempt = 1; attempt <= kMaxPeripheralAttempts; ++attempt) {
    InjectionDecision d = machine->ConsultInjector(site, name, detail);
    fault = d.fault;
    if (fault == Status::kOk) {
      return Status::kOk;
    }
    if (attempt < kMaxPeripheralAttempts) {
      machine->Charge(retry_cost, ChargeKind::kFaultRecovery);
    }
  }
  return fault;
}

}  // namespace

// --- TtyLine --------------------------------------------------------------------

TtyLine::TtyLine(Machine* machine, InterruptLine line) : machine_(machine), line_(line) {}

void TtyLine::TypeCharacter(char c) {
  machine_->Charge(kTtyCharCycles, ChargeKind::kDeviceIo);
  if (c == '#') {
    // Erase: delete the previous character.
    if (!partial_.empty()) {
      partial_.pop_back();
    }
    echoed_ += c;
    return;
  }
  if (c == '@') {
    // Kill: discard the whole partial line.
    partial_.clear();
    echoed_ += c;
    return;
  }
  echoed_ += c;
  if (c == '\n') {
    completed_.push_back(partial_);
    partial_.clear();
    ++lines_assembled_;
    (void)machine_->interrupts().Assert(line_, lines_assembled_);
    return;
  }
  partial_ += c;
}

Result<std::string> TtyLine::ReadLine() {
  if (completed_.empty()) {
    return Status::kNotFound;
  }
  std::string out = completed_.front();
  completed_.pop_front();
  return out;
}

Status TtyLine::WriteString(const std::string& text) {
  MX_RETURN_IF_ERROR(ConsultPeripheral(machine_, InjectSite::kDeviceWrite, "tty", line_,
                                       kTtyCharCycles));
  machine_->Charge(kTtyCharCycles * text.size(), ChargeKind::kDeviceIo);
  echoed_ += text;
  return Status::kOk;
}

// --- CardReader -----------------------------------------------------------------

CardReader::CardReader(Machine* machine) : machine_(machine) {}

void CardReader::LoadDeck(const std::vector<std::string>& cards) {
  for (const std::string& card : cards) {
    deck_.push_back(card);
  }
}

Result<std::string> CardReader::ReadCard() {
  if (deck_.empty()) {
    return Status::kDeviceError;  // Hopper empty.
  }
  MX_RETURN_IF_ERROR(ConsultPeripheral(machine_, InjectSite::kDeviceRead, "card-reader",
                                       deck_.size(), kCardCycles));
  machine_->Charge(kCardCycles, ChargeKind::kDeviceIo);
  std::string card = deck_.front();
  deck_.pop_front();
  card.resize(kCardColumns, ' ');
  return card;
}

// --- LinePrinter ----------------------------------------------------------------

LinePrinter::LinePrinter(Machine* machine) : machine_(machine) {}

Status LinePrinter::PrintLine(const std::string& text) {
  MX_RETURN_IF_ERROR(ConsultPeripheral(machine_, InjectSite::kDeviceWrite, "printer",
                                       lines_printed_, kPrintLineCycles));
  machine_->Charge(kPrintLineCycles, ChargeKind::kDeviceIo);
  std::string line = text.substr(0, kPrinterColumns);
  output_.push_back(line);
  ++lines_printed_;
  if (++line_on_page_ >= kLinesPerPage) {
    return EjectPage();
  }
  return Status::kOk;
}

Status LinePrinter::EjectPage() {
  machine_->Charge(kPrintLineCycles * 3, ChargeKind::kDeviceIo);
  line_on_page_ = 0;
  ++pages_;
  return Status::kOk;
}

// --- TapeDrive ------------------------------------------------------------------

TapeDrive::TapeDrive(Machine* machine) : machine_(machine) {}

Status TapeDrive::WriteRecord(const std::string& data) {
  MX_RETURN_IF_ERROR(ConsultPeripheral(machine_, InjectSite::kDeviceWrite, "tape", position_,
                                       kTapeRecordCycles));
  machine_->Charge(kTapeRecordCycles, ChargeKind::kDeviceIo);
  // Writing in the middle truncates everything after, as real tape does.
  records_.resize(position_);
  records_.push_back(data);
  ++position_;
  return Status::kOk;
}

Result<std::string> TapeDrive::ReadRecord() {
  if (position_ >= records_.size()) {
    return Status::kOutOfRange;
  }
  MX_RETURN_IF_ERROR(ConsultPeripheral(machine_, InjectSite::kDeviceRead, "tape", position_,
                                       kTapeRecordCycles));
  machine_->Charge(kTapeRecordCycles, ChargeKind::kDeviceIo);
  return records_[position_++];
}

Status TapeDrive::Rewind() {
  machine_->Charge(kTapeRecordCycles * 4, ChargeKind::kDeviceIo);
  position_ = 0;
  return Status::kOk;
}

Status TapeDrive::SkipRecords(uint32_t n) {
  machine_->Charge(kTapeRecordCycles, ChargeKind::kDeviceIo);
  if (position_ + n > records_.size()) {
    return Status::kOutOfRange;
  }
  position_ += n;
  return Status::kOk;
}

}  // namespace multics
