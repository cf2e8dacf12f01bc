// BatchLog — the append-only write-ahead log of the durable storage tier.
//
// Every mutation the maintenance thread applies — an update batch, a
// source add/remove, an injected migration blob — is first appended here
// (and optionally fsynced) as one length-prefixed, checksummed record.
// Records carry the FEED SEQUENCE: the cumulative count of applied update
// REQUESTS, which is the index's epoch minus one (a batch record at seq S
// with increment N covers requests (S, S+N]; admin records carry the
// current seq and advance nothing). Replaying the records in file order
// through PprIndex therefore reproduces not just the state but the exact
// epoch — the property the cold-restart no-epoch-regression check rests
// on.
//
// Record layout (all little-endian, see src/storage/README.md):
//
//   u32 magic 'DPLG'   u8 type   u64 seq   u32 increment
//   u32 payload_len    payload bytes       u64 fnv1a-checksum
//
// The checksum covers everything from the magic through the payload, so a
// torn append (crash mid-write) is detected by Open()'s recovery scan: the
// scan stops at the first short/corrupt record and TRUNCATES the file
// there. Because a record is always fsynced before its mutation is
// applied, the truncated tail is by construction a mutation that never
// happened — recovery loses nothing.

#ifndef DPPR_STORAGE_BATCH_LOG_H_
#define DPPR_STORAGE_BATCH_LOG_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.h"

namespace dppr {
namespace storage {

/// FNV-1a over `bytes` of `data` — the same seed/prime as the
/// core/serialization checkpoint codec, shared by every storage format.
uint64_t Fnv1a(const void* data, size_t bytes);

/// What a log record describes. Values are the on-disk encoding.
enum class LogRecordType : uint8_t {
  kBatch = 1,         ///< payload: net::EncodeUpdateBatch bytes
  kAddSource = 2,     ///< payload: i32 source vertex
  kRemoveSource = 3,  ///< payload: i32 source vertex
  kInjectSource = 4,  ///< payload: a migration blob (EncodeMigrationBlob)
};

struct LogRecord {
  LogRecordType type = LogRecordType::kBatch;
  uint64_t seq = 0;        ///< feed sequence BEFORE this record applied
  uint32_t increment = 0;  ///< requests this record advances the feed by
  std::string payload;
  uint64_t file_offset = 0;  ///< where the record starts (filled by Open)
};

struct BatchLogOptions {
  /// fsync after every append — the WAL durability contract. Tests that
  /// only exercise the format may turn it off for speed.
  bool fsync_on_commit = true;
};

/// Single-writer append log. All calls must come from one thread (the
/// maintenance thread owns the instance in production).
class BatchLog {
 public:
  BatchLog() = default;
  ~BatchLog();
  BatchLog(const BatchLog&) = delete;
  BatchLog& operator=(const BatchLog&) = delete;

  /// Opens (creating if absent) the log at `path`: scans every record,
  /// truncates a torn tail, and positions for append. The scanned records
  /// stay available via records() until DropRecordPayloads().
  Status Open(const std::string& path, const BatchLogOptions& options);

  /// Appends one record (and fsyncs, per options). `rec.file_offset` is
  /// ignored; the record's actual offset is returned through *offset when
  /// non-null.
  Status Append(const LogRecord& rec, uint64_t* offset = nullptr);

  /// Records recovered by Open(), in file order.
  const std::vector<LogRecord>& records() const { return records_; }

  /// Releases the recovered records' payload memory (the metadata callers
  /// keep — seq, type, offsets — should be copied out first).
  void DropRecordPayloads() { records_.clear(); records_.shrink_to_fit(); }

  /// Byte offset one past the last valid record (== file size after the
  /// recovery truncation; advances with every Append).
  uint64_t end_offset() const { return end_offset_; }

  /// Bytes the recovery scan cut off (0 on a clean open).
  uint64_t truncated_bytes() const { return truncated_bytes_; }

  bool is_open() const { return file_ != nullptr; }
  void Close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  BatchLogOptions options_;
  std::vector<LogRecord> records_;
  uint64_t end_offset_ = 0;
  uint64_t truncated_bytes_ = 0;
};

}  // namespace storage
}  // namespace dppr

#endif  // DPPR_STORAGE_BATCH_LOG_H_
