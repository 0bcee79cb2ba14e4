#ifndef DBS3_STORAGE_SPILL_H_
#define DBS3_STORAGE_SPILL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/tuple.h"

namespace dbs3 {

/// Tuples per on-disk chunk frame — the spill counterpart of the engine's
/// TupleChunk batching: writes encode up to this many tuples into one
/// buffered frame, reads return one frame at a time, so the streaming
/// passes of the spill paths touch memory in chunk-sized units.
inline constexpr size_t kSpillChunkTuples = 256;

/// One execution's spill record: the executor owns one per run, hands it
/// to every operator logic (ExecResources::spill) and, after the drain,
/// reports each non-zero field as a spill.<field> counter of the run's
/// metrics. Spill files add their IO; the spilling operators add their
/// events (a join build partition spilled, a repartition or group-by
/// merge split, a group-by table flushed). Atomic: instances on different
/// threads count concurrently.
struct SpillCounters {
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> partitions{0};
  std::atomic<uint64_t> recursions{0};
  std::atomic<uint64_t> groupby_flushes{0};
};

/// One anonymous temporary file of spilled tuples: append-only while
/// writing, then rewindable for streaming chunk reads (rewind-and-rescan is
/// allowed — the block nested-loop fallback re-reads its probe file once
/// per build batch).
///
/// Frame format, little-endian host order (spill files never leave the
/// process): per chunk a u32 tuple count, per tuple a u32 arity, per value
/// a 1-byte tag (0 = int64 payload, 1 = u32 length + string bytes) — the
/// in-process sibling of the relation serializer's value codec. Backed by
/// std::tmpfile, so the file is unlinked from birth: any exit path
/// (including cancellation tearing the operator down mid-spill) reclaims
/// the disk space when the handle closes.
///
/// Not internally synchronized: callers serialize access per file (the
/// spilling operators append under their instance lock and drain each
/// instance's files from one thread at a time).
class SpillFile {
 public:
  /// Opens a fresh unlinked temporary file. `counters` (optional) receives
  /// this file's IO tallies from Append, Rewind and ReadChunk; it
  /// must outlive those calls, not the file.
  static Result<std::unique_ptr<SpillFile>> Create(
      SpillCounters* counters = nullptr);

  /// Closes the file and touches no counter: on the cancel path a spill
  /// file is destroyed with its operator logic, after the execution that
  /// owned `counters` has returned.
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Encodes one tuple into the buffered frame; flushes a full frame to
  /// disk. Copies no row: the frame holds bytes, not tuples.
  Status Append(const Tuple& tuple);

  /// Flushes the write buffer and repositions at the first chunk. Call
  /// before the first ReadChunk and before every rescan.
  Status Rewind();

  /// Reads the next chunk frame into `*out`, which ends up holding exactly
  /// the frame's tuples. The tuples already in `*out` are overwritten in
  /// place (Tuple::Clear, then Append), so a caller that reads chunk after
  /// chunk into one vector takes new row storage only for rows wider than
  /// before, and any it takes comes from the thread's scratch chain
  /// (row_block::ScratchScope). Returns false at end of file, with `*out`
  /// empty, and true when `*out` holds tuples. The vector is the engine's
  /// TupleChunk wire unit (storage does not name the alias).
  Result<bool> ReadChunk(std::vector<Tuple>* out);

  /// Tuples appended over the file's lifetime.
  uint64_t tuple_count() const { return tuples_; }

  /// Bytes flushed to disk so far.
  uint64_t bytes_written() const { return bytes_written_; }

  /// Live SpillFile handles process-wide — the cleanup tests assert this
  /// returns to zero after cancelled executions are torn down.
  static int64_t live_files();

 private:
  SpillFile(std::FILE* file, SpillCounters* counters);

  Status FlushBuffer();

  std::FILE* file_;
  SpillCounters* counters_;
  /// The frame being written: a u32 count, patched at flush, then the
  /// encoded tuples. Keeps its capacity across flushes.
  std::vector<char> frame_;
  uint32_t frame_tuples_ = 0;
  uint64_t tuples_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace dbs3

#endif  // DBS3_STORAGE_SPILL_H_
