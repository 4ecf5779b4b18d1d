#include "eca/journal.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>

#include "util/crc32.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace park {

namespace {

// --- structural scanner -------------------------------------------------
//
// The scanner validates record framing, sequence continuity, and CRCs
// without parsing atoms, so it can run where no symbol table exists
// (Open) and report exact byte offsets for torn-tail truncation.

struct ScannedRecord {
  uint64_t seq = 0;
  std::vector<std::string_view> update_lines;
};

struct JournalScan {
  std::vector<ScannedRecord> records;
  /// Byte offset one past the last valid record: everything after it is
  /// a torn tail (if any).
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
  std::string tail_reason;
};

/// Extracts the line starting at `*pos` (newline not included) and
/// advances past it. Returns false at end of input. `*terminated` tells
/// whether the line ended with '\n' — a line that just stops is the
/// classic torn-append shape.
bool NextLine(std::string_view contents, size_t* pos, std::string_view* line,
              bool* terminated) {
  if (*pos >= contents.size()) return false;
  size_t nl = contents.find('\n', *pos);
  if (nl == std::string_view::npos) {
    *line = contents.substr(*pos);
    *pos = contents.size();
    *terminated = false;
  } else {
    *line = contents.substr(*pos, nl - *pos);
    *pos = nl + 1;
    *terminated = true;
  }
  return true;
}

bool ParseSeq(std::string_view text, uint64_t* seq) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - (c - '0')) / 10) return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

bool ParseBeginLine(std::string_view line, uint64_t* seq) {
  if (!StartsWith(line, "begin ")) return false;
  return ParseSeq(line.substr(6), seq);
}

bool ParseCommitLine(std::string_view line, uint64_t* seq, uint32_t* crc) {
  if (!StartsWith(line, "commit ")) return false;
  line.remove_prefix(7);
  size_t space = line.find(' ');
  if (space == std::string_view::npos) return false;
  if (!ParseSeq(line.substr(0, space), seq)) return false;
  std::string_view crc_field = line.substr(space + 1);
  if (!StartsWith(crc_field, "crc=") || crc_field.size() != 4 + 8) {
    return false;
  }
  uint32_t value = 0;
  for (char c : crc_field.substr(4)) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    value = (value << 4) | static_cast<uint32_t>(digit);
  }
  *crc = value;
  return true;
}

enum class RecordParse { kOk, kEndOfInput, kBad };

/// Attempts to parse one complete record at `*pos`. On kOk, `*pos` is
/// just past the record's commit line. On kBad, `*reason` says why and
/// `*pos` is unspecified.
RecordParse ParseOneRecord(std::string_view contents, size_t* pos,
                           ScannedRecord* out, std::string* reason) {
  std::string_view line;
  bool terminated = false;
  if (!NextLine(contents, pos, &line, &terminated)) {
    return RecordParse::kEndOfInput;
  }
  if (!terminated) {
    *reason = "torn line where a record should begin";
    return RecordParse::kBad;
  }
  if (!ParseBeginLine(line, &out->seq)) {
    *reason = StrFormat("expected 'begin <seq>', got \"%.*s\"",
                        static_cast<int>(line.size()), line.data());
    return RecordParse::kBad;
  }
  uint32_t crc = kCrc32Init;
  crc = Crc32Update(crc, StrFormat("%llu\n",
                                   static_cast<unsigned long long>(out->seq)));
  out->update_lines.clear();
  while (true) {
    if (!NextLine(contents, pos, &line, &terminated)) {
      *reason = StrFormat("record %llu has no commit line",
                          static_cast<unsigned long long>(out->seq));
      return RecordParse::kBad;
    }
    if (!terminated) {
      *reason = StrFormat("record %llu ends in a torn line",
                          static_cast<unsigned long long>(out->seq));
      return RecordParse::kBad;
    }
    if (StartsWith(line, "commit")) {
      uint64_t commit_seq = 0;
      uint32_t stored_crc = 0;
      if (!ParseCommitLine(line, &commit_seq, &stored_crc)) {
        *reason = StrFormat("malformed commit line \"%.*s\"",
                            static_cast<int>(line.size()), line.data());
        return RecordParse::kBad;
      }
      if (commit_seq != out->seq) {
        *reason = StrFormat(
            "commit seq %llu does not match begin seq %llu",
            static_cast<unsigned long long>(commit_seq),
            static_cast<unsigned long long>(out->seq));
        return RecordParse::kBad;
      }
      if (Crc32Finish(crc) != stored_crc) {
        *reason = StrFormat("record %llu failed its CRC check",
                            static_cast<unsigned long long>(out->seq));
        return RecordParse::kBad;
      }
      return RecordParse::kOk;
    }
    crc = Crc32Update(crc, line);
    crc = Crc32Update(crc, "\n");
    out->update_lines.push_back(line);
  }
}

/// True if a complete, CRC-valid record starts at any line AFTER the line
/// beginning at `from` — the discriminator between a torn tail (nothing
/// valid follows) and mid-journal corruption (valid data follows).
bool AnyValidRecordAfter(std::string_view contents, size_t from) {
  size_t pos = from;
  while (pos < contents.size()) {
    size_t nl = contents.find('\n', pos);
    if (nl == std::string_view::npos) return false;
    pos = nl + 1;
    if (!StartsWith(contents.substr(pos), "begin ")) continue;
    size_t probe = pos;
    ScannedRecord record;
    std::string reason;
    if (ParseOneRecord(contents, &probe, &record, &reason) ==
        RecordParse::kOk) {
      return true;
    }
  }
  return false;
}

Result<JournalScan> ScanJournal(std::string_view contents,
                                const std::string& path) {
  JournalScan scan;
  size_t pos = 0;
  std::optional<uint64_t> prev_seq;
  while (true) {
    const size_t record_start = pos;
    ScannedRecord record;
    std::string reason;
    RecordParse outcome = ParseOneRecord(contents, &pos, &record, &reason);
    if (outcome == RecordParse::kEndOfInput) break;
    if (outcome == RecordParse::kOk && prev_seq.has_value() &&
        record.seq != *prev_seq + 1) {
      // A gap or repeat in the middle of an append-only file means bytes
      // were lost or rewritten — never a torn tail.
      return DataLossError(StrFormat(
          "%s: sequence %llu follows %llu (records lost?)", path.c_str(),
          static_cast<unsigned long long>(record.seq),
          static_cast<unsigned long long>(*prev_seq)));
    }
    if (outcome == RecordParse::kBad) {
      if (AnyValidRecordAfter(contents, record_start)) {
        return DataLossError(StrFormat(
            "%s: corruption at byte %zu (%s) with valid records after it",
            path.c_str(), record_start, reason.c_str()));
      }
      // A genuine torn append is a prefix of one record, so the tail must
      // open with "begin " (or a prefix of it, if the tear was that
      // early). Anything else was never written by this journal — treat
      // it as corruption, not as a droppable tail.
      std::string_view tail = contents.substr(record_start);
      std::string_view magic = "begin ";
      bool record_shaped = StartsWith(tail, magic) ||
                           (tail.size() < magic.size() &&
                            StartsWith(magic, tail));
      if (!record_shaped) {
        return DataLossError(StrFormat(
            "%s: unrecognized data at byte %zu (%s)", path.c_str(),
            record_start, reason.c_str()));
      }
      scan.torn_tail = true;
      scan.tail_reason = std::move(reason);
      break;
    }
    prev_seq = record.seq;
    scan.records.push_back(std::move(record));
    scan.valid_bytes = pos;
  }
  if (!scan.torn_tail) scan.valid_bytes = contents.size();
  return scan;
}

/// Reads `path` through `env`, mapping "file does not exist" to an empty
/// journal and every other failure to a real error (a journal that exists
/// but cannot be read must never be mistaken for a fresh one).
Result<std::optional<std::string>> ReadJournalFile(const std::string& path,
                                                  Env* env) {
  auto contents = env->ReadFileToString(path);
  if (contents.ok()) return std::optional<std::string>(std::move(*contents));
  if (contents.status().code() == StatusCode::kNotFound) {
    return std::optional<std::string>();  // fresh journal
  }
  return contents.status().WithContext("reading journal");
}

}  // namespace

// --- TransactionJournal -------------------------------------------------

Result<TransactionJournal> TransactionJournal::Open(const std::string& path,
                                                    JournalOptions options) {
  if (options.env == nullptr) options.env = Env::Default();
  Env* env = options.env;

  uint64_t next_seq = options.first_seq;
  uint64_t durable_bytes = 0;
  PARK_ASSIGN_OR_RETURN(std::optional<std::string> contents,
                        ReadJournalFile(path, env));
  if (contents.has_value()) {
    PARK_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(*contents, path));
    if (scan.torn_tail) {
      PARK_LOG(kWarning) << "journal " << path << ": dropping torn tail ("
                         << scan.tail_reason << "), truncating to "
                         << scan.valid_bytes << " bytes";
      PARK_RETURN_IF_ERROR(
          env->TruncateFile(path, scan.valid_bytes)
              .WithContext("truncating torn journal tail"));
    }
    durable_bytes = scan.valid_bytes;
    if (!scan.records.empty()) {
      next_seq = scan.records.back().seq + 1;
    }
  }

  PARK_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> file,
      env->NewWritableFile(path, Env::WriteMode::kAppend));
  return TransactionJournal(path, options, std::move(file), next_seq,
                            durable_bytes);
}

TransactionJournal::TransactionJournal(TransactionJournal&& other) noexcept
    : path_(std::move(other.path_)), options_(other.options_),
      file_(std::move(other.file_)), next_seq_(other.next_seq_),
      durable_bytes_(other.durable_bytes_), broken_(other.broken_),
      io_attempts_(other.io_attempts_), io_retries_(other.io_retries_),
      backoff_ms_total_(other.backoff_ms_total_),
      retries_exhausted_(other.retries_exhausted_),
      last_append_attempts_(other.last_append_attempts_) {}

TransactionJournal& TransactionJournal::operator=(
    TransactionJournal&& other) noexcept {
  if (this != &other) {
    CloseLogged();
    path_ = std::move(other.path_);
    options_ = other.options_;
    file_ = std::move(other.file_);
    next_seq_ = other.next_seq_;
    durable_bytes_ = other.durable_bytes_;
    broken_ = other.broken_;
    io_attempts_ = other.io_attempts_;
    io_retries_ = other.io_retries_;
    backoff_ms_total_ = other.backoff_ms_total_;
    retries_exhausted_ = other.retries_exhausted_;
    last_append_attempts_ = other.last_append_attempts_;
  }
  return *this;
}

TransactionJournal::~TransactionJournal() { CloseLogged(); }

void TransactionJournal::CloseLogged() {
  if (file_ == nullptr) return;
  Status status = file_->Close();
  if (!status.ok()) {
    // Destructors and move-assignment cannot return the Status; a failed
    // final flush must still be visible somewhere.
    PARK_LOG(kWarning) << "journal " << path_
                       << ": close failed: " << status.ToString();
  }
  file_.reset();
}

Status TransactionJournal::Append(const UpdateSet& updates,
                                  const SymbolTable& symbols,
                                  uint64_t txns) {
  if (file_ == nullptr) {
    return FailedPreconditionError("journal has been moved from");
  }
  if (broken_) {
    return FailedPreconditionError(StrFormat(
        "journal %s is disabled after an unhealed append failure; reopen "
        "to recover", path_.c_str()));
  }
  if (txns == 0) {
    return InvalidArgumentError("journal record must hold >= 1 txn");
  }
  const uint64_t seq = next_seq_;
  std::string body;
  if (txns > 1) {
    body += StrFormat("batch %llu\n", static_cast<unsigned long long>(txns));
  }
  for (const Update& update : updates.updates()) {
    body += ActionKindSign(update.action);
    body += update.atom.ToString(symbols);
    body += "\n";
  }
  const std::string seq_line =
      StrFormat("%llu\n", static_cast<unsigned long long>(seq));
  const uint32_t crc =
      Crc32Finish(Crc32Update(Crc32Update(kCrc32Init, seq_line), body));
  std::string record =
      StrFormat("begin %llu\n", static_cast<unsigned long long>(seq));
  record += body;
  record += StrFormat("commit %llu crc=%08x\n",
                      static_cast<unsigned long long>(seq), crc);

  last_sync_ns_ = 0;
  last_append_attempts_ = 0;
  Status status;
  for (;;) {
    ++last_append_attempts_;
    ++io_attempts_;
    status = file_->Append(record);
    if (status.ok() && options_.sync_mode != JournalSyncMode::kNone) {
      const int64_t sync_start_ns = MonotonicNanos();
      status = file_->Flush();
      if (status.ok() && options_.sync_mode == JournalSyncMode::kFsync) {
        status = file_->Sync();
      }
      last_sync_ns_ =
          static_cast<uint64_t>(MonotonicNanos() - sync_start_ns);
    }
    if (status.ok()) break;
    // The record may be torn on disk. Heal the file back to its last
    // durable byte BEFORE any retry or return, so neither a retried
    // append nor a later one can bury the damage mid-journal; if healing
    // also fails, poison the handle — reopening (which truncates torn
    // tails) is the only safe way forward.
    Status heal = options_.env->TruncateFile(path_, durable_bytes_);
    if (!heal.ok()) {
      broken_ = true;
      PARK_LOG(kWarning) << "journal " << path_
                         << ": could not heal after failed append ("
                         << heal.ToString() << "); journal disabled";
      break;
    }
    // Only transient failures are worth retrying.
    if (status.code() != StatusCode::kUnavailable) break;
    if (last_append_attempts_ > options_.max_retries) {
      ++retries_exhausted_;
      break;
    }
    ++io_retries_;
    if (options_.backoff_ms > 0) {
      const int shift = std::min(last_append_attempts_ - 1, 10);
      const int64_t delay =
          std::min(options_.backoff_ms << shift, kMaxBackoffMs);
      backoff_ms_total_ += static_cast<uint64_t>(delay);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
  if (!status.ok()) {
    return status.WithContext(StrFormat(
        "journal append failed on %s after %d attempt(s)", path_.c_str(),
        last_append_attempts_));
  }
  next_seq_ = seq + 1;
  durable_bytes_ += record.size();
  return Status::OK();
}

Status TransactionJournal::Truncate() {
  if (file_ == nullptr) {
    return FailedPreconditionError("journal has been moved from");
  }
  // The file is open for appending, so the next record lands at byte 0.
  PARK_RETURN_IF_ERROR(options_.env->TruncateFile(path_, 0));
  durable_bytes_ = 0;
  broken_ = false;  // an empty file has no torn tail
  return Status::OK();
}

Result<std::vector<JournalRecord>> TransactionJournal::ReadRecords(
    const std::string& path,
    const std::shared_ptr<SymbolTable>& symbols, Env* env,
    bool* torn_tail) {
  if (env == nullptr) env = Env::Default();
  if (torn_tail != nullptr) *torn_tail = false;

  PARK_ASSIGN_OR_RETURN(std::optional<std::string> contents,
                        ReadJournalFile(path, env));
  std::vector<JournalRecord> records;
  if (!contents.has_value()) return records;  // fresh journal

  PARK_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(*contents, path));
  if (scan.torn_tail) {
    PARK_LOG(kWarning) << "journal " << path << ": ignoring torn tail ("
                       << scan.tail_reason << ")";
    if (torn_tail != nullptr) *torn_tail = true;
  }
  records.reserve(scan.records.size());
  for (const ScannedRecord& scanned : scan.records) {
    JournalRecord record;
    record.seq = scanned.seq;
    size_t first_update = 0;
    // A leading "batch <k>" line annotates a group commit; it is body
    // text (CRC-covered), not an update.
    if (!scanned.update_lines.empty() &&
        StartsWith(scanned.update_lines[0], "batch ")) {
      uint64_t txns = 0;
      if (!ParseSeq(scanned.update_lines[0].substr(6), &txns) ||
          txns == 0) {
        return DataLossError(StrFormat(
            "%s: record %llu has a malformed batch line", path.c_str(),
            static_cast<unsigned long long>(scanned.seq)));
      }
      record.txns = txns;
      first_update = 1;
    }
    for (size_t i = first_update; i < scanned.update_lines.size(); ++i) {
      std::string_view line = scanned.update_lines[i];
      Status status = record.updates.AddParsed(line, symbols);
      if (!status.ok()) {
        return status.WithContext(StrFormat(
            "%s: record %llu", path.c_str(),
            static_cast<unsigned long long>(scanned.seq)));
      }
    }
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace park
