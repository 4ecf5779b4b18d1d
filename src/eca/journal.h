// TransactionJournal: an append-only, checksummed, human-readable
// write-ahead log of committed transactions, giving ActiveDatabase
// durability across process restarts: snapshot + journal replay
// reconstructs the exact state, because the PARK semantics is
// deterministic (paper §3, "Unambiguous Semantics") given the same policy.
//
// Record format (text, one update per line):
//
//   begin 7
//   +q(b)
//   -payroll(ada, 9000)
//   commit 7 crc=1f2e3d4c
//
// `7` is the record's sequence number (strictly consecutive within a
// journal; the first record of a journal may start anywhere, which is how
// a checkpoint-truncated journal resumes). The footer's crc is the
// CRC-32 of "<seq>\n" plus every update line including its newline, so a
// record is accepted during recovery only if its commit footer made it to
// disk intact.
//
// A group commit (serve::Session, docs/SERVING.md) folds k transactions
// into ONE record — one firing, one fsync — and annotates it with a
// `batch k` line before the updates:
//
//   begin 8
//   batch 3
//   +a(x)
//   +b(y)
//   commit 8 crc=9a8b7c6d
//
// The batch line is part of the CRC'd body, so framing and recovery are
// unchanged; readers report it via JournalRecord::txns (1 when absent,
// so journals from before the extension replay identically).
//
// Recovery semantics (see docs/DURABILITY.md):
//   - a torn or corrupt TAIL (crash mid-append) is dropped and truncated;
//   - corruption in the MIDDLE of the journal (valid records follow the
//     damage) is kDataLoss — committed transactions would be lost, so
//     recovery refuses to guess;
//   - a missing journal file is a fresh journal; any other read failure
//     (permissions, path is a directory) is a real error, never silently
//     treated as empty.

#ifndef PARK_ECA_JOURNAL_H_
#define PARK_ECA_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eca/update.h"
#include "util/env.h"

namespace park {

/// How hard Append pushes each record toward the platter.
enum class JournalSyncMode {
  kNone,   // leave the record in OS/user buffers (fastest, weakest)
  kFlush,  // flush to the OS: survives process crash, not power loss
  kFsync,  // fsync per commit: survives power loss (group-commit cost)
};

struct JournalOptions {
  /// Filesystem to use; null means Env::Default().
  Env* env = nullptr;
  JournalSyncMode sync_mode = JournalSyncMode::kFlush;
  /// Sequence number of the first record if the journal is empty or
  /// missing (an existing journal resumes after its last record).
  /// ActiveDatabase::Open passes the last recovered seq + 1, so a journal
  /// that a checkpoint at sequence S truncated resumes at S + 1.
  uint64_t first_seq = 1;
  /// Retries after the first attempt when an append fails TRANSIENTLY
  /// (kUnavailable — EAGAIN-class conditions). Permanent failures are
  /// never retried. Each retry re-appends the whole record after the
  /// file has been healed back to its last durable byte.
  int max_retries = 3;
  /// Sleep before the first retry, doubling per retry and capped at
  /// kMaxBackoffMs. 0 retries immediately (tests use this).
  int64_t backoff_ms = 0;
};

/// One committed record as read back from disk.
struct JournalRecord {
  uint64_t seq = 0;
  /// Transactions folded into this record by a group commit; 1 for a
  /// plain commit (and for records written before the batch extension).
  uint64_t txns = 1;
  UpdateSet updates;
};

/// Append handle for a journal file. Move-only; closes on destruction.
class TransactionJournal {
 public:
  /// Opens `path` for appending, creating it if absent. An existing file
  /// is scanned first: a torn tail is truncated away (logged), mid-file
  /// corruption is kDataLoss, and appending resumes after the last valid
  /// record's sequence number.
  static Result<TransactionJournal> Open(const std::string& path,
                                         JournalOptions options = {});

  TransactionJournal(TransactionJournal&& other) noexcept;
  TransactionJournal& operator=(TransactionJournal&& other) noexcept;
  TransactionJournal(const TransactionJournal&) = delete;
  TransactionJournal& operator=(const TransactionJournal&) = delete;
  ~TransactionJournal();

  /// Appends one committed transaction record and applies the configured
  /// sync mode. On success last_seq() advances to the record's number.
  /// Transient (kUnavailable) failures are retried up to
  /// JournalOptions::max_retries times with capped exponential backoff;
  /// before every retry — and before any error return — the file is
  /// healed back to its last durable byte, so a failed Append leaves the
  /// journal consistent and appendable (no reopen needed). The one
  /// exception is a failed heal, which disables the handle (kDataLoss
  /// risk otherwise); reopening then truncates the torn tail.
  ///
  /// `txns` is the number of transactions folded into this record by a
  /// group commit; values > 1 emit a `batch <txns>` annotation line
  /// (CRC-covered like any update line). Plain commits pass 1 and the
  /// record format is byte-identical to the pre-batch journal.
  Status Append(const UpdateSet& updates, const SymbolTable& symbols,
                uint64_t txns = 1);

  /// Drops every record: truncates the file to zero bytes through this
  /// handle, which keeps appending with the same numbering (the next
  /// record is still last_seq() + 1). On failure the records stay and the
  /// handle keeps appending after them.
  Status Truncate();

  /// Replaces the retry policy (JournalOptions::max_retries, backoff_ms)
  /// for every later Append.
  void SetRetryPolicy(int max_retries, int64_t backoff_ms) {
    options_.max_retries = max_retries;
    options_.backoff_ms = backoff_ms;
  }

  const std::string& path() const { return path_; }

  /// Sequence number of the newest durable record; first_seq - 1 when
  /// the journal has none (so a checkpointed journal reports the
  /// checkpoint's sequence).
  uint64_t last_seq() const { return next_seq_ - 1; }

  JournalSyncMode sync_mode() const { return options_.sync_mode; }

  /// Wall time the most recent successful Append spent inside the
  /// configured flush/fsync (0 under JournalSyncMode::kNone) — the
  /// observability layer's "how much of the commit was the disk" number
  /// (CommitTimings::journal_sync_ns). Always measured: commits are
  /// milliseconds-scale, two clock reads are noise.
  uint64_t last_sync_ns() const { return last_sync_ns_; }

  /// Upper bound on one retry's backoff sleep, whatever backoff_ms and
  /// the retry count say.
  static constexpr int64_t kMaxBackoffMs = 1000;

  // Retry observability, cumulative over this handle's lifetime (they
  // feed the stats JSON's "io_retry" block).
  /// Write attempts, first tries included.
  uint64_t io_attempts() const { return io_attempts_; }
  /// Attempts beyond the first (i.e. actual retries).
  uint64_t io_retries() const { return io_retries_; }
  /// Total milliseconds slept in backoff.
  uint64_t backoff_ms_total() const { return backoff_ms_total_; }
  /// Appends that failed transiently even after every allowed retry.
  uint64_t retries_exhausted() const { return retries_exhausted_; }
  /// Attempts the most recent Append made (1 = no retry was needed).
  int last_append_attempts() const { return last_append_attempts_; }

  /// Parses every complete record in `path`. A missing file yields an
  /// empty list (a fresh journal); a torn or corrupt trailing record is
  /// skipped (and reported via `torn_tail` when non-null); corruption
  /// followed by further valid records is kDataLoss; an unreadable file
  /// is an error, never an empty journal.
  static Result<std::vector<JournalRecord>> ReadRecords(
      const std::string& path,
      const std::shared_ptr<SymbolTable>& symbols, Env* env = nullptr,
      bool* torn_tail = nullptr);

 private:
  TransactionJournal(std::string path, JournalOptions options,
                     std::unique_ptr<WritableFile> file, uint64_t next_seq,
                     uint64_t durable_bytes)
      : path_(std::move(path)), options_(options), file_(std::move(file)),
        next_seq_(next_seq), durable_bytes_(durable_bytes) {}

  /// Closes the current file handle, logging (not swallowing) a failed
  /// final flush/close — used by the destructor and move-assignment,
  /// which have no way to return the Status.
  void CloseLogged();

  std::string path_;
  JournalOptions options_;
  std::unique_ptr<WritableFile> file_;
  uint64_t next_seq_ = 1;
  /// Bytes of complete records on disk — the truncation point that heals
  /// the file after a failed (possibly torn) append.
  uint64_t durable_bytes_ = 0;
  /// Set when a failed append could not be healed by truncation; the
  /// journal then refuses further appends (the file may be torn).
  bool broken_ = false;
  uint64_t last_sync_ns_ = 0;
  uint64_t io_attempts_ = 0;
  uint64_t io_retries_ = 0;
  uint64_t backoff_ms_total_ = 0;
  uint64_t retries_exhausted_ = 0;
  int last_append_attempts_ = 0;
};

}  // namespace park

#endif  // PARK_ECA_JOURNAL_H_
