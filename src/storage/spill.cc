#include "storage/spill.h"

#include <cstring>
#include <utility>

#include "storage/row_block.h"

namespace dbs3 {

namespace {

std::atomic<int64_t> g_live_files{0};

Status ShortWrite() { return Status::Internal("short write to spill file"); }

Status Truncated() {
  return Status::Internal("truncated spill file chunk");
}

/// Serializes one value into `buf` (appended): tag byte, then the int64
/// payload or u32 length + bytes. Mirrors the relation serializer's codec,
/// minus the cross-process framing spill files do not need.
void EncodeValue(const Value& v, std::vector<char>* buf) {
  const char tag = v.is_int() ? 0 : 1;
  buf->push_back(tag);
  if (v.is_int()) {
    const int64_t x = v.AsInt();
    const char* p = reinterpret_cast<const char*>(&x);
    buf->insert(buf->end(), p, p + sizeof(x));
    return;
  }
  const std::string& s = v.AsString();
  const uint32_t n = static_cast<uint32_t>(s.size());
  const char* p = reinterpret_cast<const char*>(&n);
  buf->insert(buf->end(), p, p + sizeof(n));
  buf->insert(buf->end(), s.data(), s.data() + s.size());
}

Status ReadExact(std::FILE* f, void* data, size_t n) {
  if (std::fread(data, 1, n, f) != n) return Truncated();
  return Status::OK();
}

Result<Value> DecodeValue(std::FILE* f) {
  char tag = 0;
  DBS3_RETURN_IF_ERROR(ReadExact(f, &tag, 1));
  if (tag == 0) {
    int64_t x = 0;
    DBS3_RETURN_IF_ERROR(ReadExact(f, &x, sizeof(x)));
    return Value(x);
  }
  if (tag != 1) return Status::Internal("corrupt spill value tag");
  uint32_t n = 0;
  DBS3_RETURN_IF_ERROR(ReadExact(f, &n, sizeof(n)));
  std::string s(n, '\0');
  DBS3_RETURN_IF_ERROR(ReadExact(f, s.data(), n));
  return Value(std::move(s));
}

}  // namespace

Result<std::unique_ptr<SpillFile>> SpillFile::Create(SpillCounters* counters) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) {
    return Status::Internal("cannot open spill temporary file");
  }
  return std::unique_ptr<SpillFile>(new SpillFile(f, counters));
}

SpillFile::SpillFile(std::FILE* file, SpillCounters* counters)
    : file_(file), counters_(counters) {
  g_live_files.fetch_add(1, std::memory_order_relaxed);
}

SpillFile::~SpillFile() {
  // tmpfile() handles are unlinked from creation: closing is all the
  // cleanup there is, on every path including cancellation.
  std::fclose(file_);
  g_live_files.fetch_sub(1, std::memory_order_relaxed);
}

int64_t SpillFile::live_files() {
  return g_live_files.load(std::memory_order_relaxed);
}

Status SpillFile::Append(const Tuple& tuple) {
  // Room for the frame's count, which FlushBuffer fills in.
  if (frame_tuples_ == 0) frame_.assign(sizeof(uint32_t), '\0');
  const uint32_t arity = static_cast<uint32_t>(tuple.size());
  const char* a = reinterpret_cast<const char*>(&arity);
  frame_.insert(frame_.end(), a, a + sizeof(arity));
  for (const Value& v : tuple.values()) EncodeValue(v, &frame_);
  ++frame_tuples_;
  ++tuples_;
  if (frame_tuples_ >= kSpillChunkTuples) return FlushBuffer();
  return Status::OK();
}

Status SpillFile::FlushBuffer() {
  if (frame_tuples_ == 0) return Status::OK();
  // One frame: count, then the encoded tuples, written with a single
  // fwrite so a frame is all-or-nothing from this process's view.
  std::memcpy(frame_.data(), &frame_tuples_, sizeof(frame_tuples_));
  if (std::fwrite(frame_.data(), 1, frame_.size(), file_) != frame_.size()) {
    return ShortWrite();
  }
  bytes_written_ += frame_.size();
  if (counters_ != nullptr) {
    counters_->bytes_written.fetch_add(frame_.size(),
                                       std::memory_order_relaxed);
  }
  frame_.clear();
  frame_tuples_ = 0;
  return Status::OK();
}

Status SpillFile::Rewind() {
  DBS3_RETURN_IF_ERROR(FlushBuffer());
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::Internal("cannot rewind spill file");
  }
  return Status::OK();
}

Result<bool> SpillFile::ReadChunk(std::vector<Tuple>* out) {
  uint32_t count = 0;
  const size_t got = std::fread(&count, 1, sizeof(count), file_);
  if (got == 0) {  // Clean end of file.
    out->clear();
    return false;
  }
  if (got != sizeof(count)) return Truncated();
  uint64_t bytes = sizeof(count);
  // Spilled rows are an operator's working state and die before the rows
  // the same thread stores as results; carved apart from those, they never
  // keep a result's block alive, or a result theirs.
  row_block::ScratchScope scratch;
  out->resize(count);
  for (Tuple& t : *out) {
    uint32_t arity = 0;
    DBS3_RETURN_IF_ERROR(ReadExact(file_, &arity, sizeof(arity)));
    bytes += sizeof(arity);
    t.Clear();
    t.Reserve(arity);
    for (uint32_t c = 0; c < arity; ++c) {
      DBS3_ASSIGN_OR_RETURN(Value v, DecodeValue(file_));
      bytes += 1 + (v.is_int() ? sizeof(int64_t)
                               : sizeof(uint32_t) + v.AsString().size());
      t.Append(std::move(v));
    }
  }
  if (counters_ != nullptr) {
    counters_->bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  }
  return true;
}

}  // namespace dbs3
