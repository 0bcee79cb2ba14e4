#include "storage/serialize.h"

#include <cstdint>
#include <cstdio>
#include <vector>

namespace dbs3 {

namespace {

constexpr uint32_t kMagic = 0xDB530001;
constexpr uint32_t kVersion = 1;

/// RAII stdio handle.
class File {
 public:
  File(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::FILE* get() const { return f_; }

 private:
  std::FILE* f_;
};

Status WriteBytes(std::FILE* f, const void* data, size_t n,
                  const std::string& path) {
  if (std::fwrite(data, 1, n, f) != n) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Status WriteU64(std::FILE* f, uint64_t v, const std::string& path) {
  return WriteBytes(f, &v, sizeof(v), path);
}

Status WriteString(std::FILE* f, const std::string& s,
                   const std::string& path) {
  DBS3_RETURN_IF_ERROR(WriteU64(f, s.size(), path));
  return WriteBytes(f, s.data(), s.size(), path);
}

Status WriteValue(std::FILE* f, const Value& v, const std::string& path) {
  const uint8_t tag = v.is_int() ? 0 : 1;
  DBS3_RETURN_IF_ERROR(WriteBytes(f, &tag, 1, path));
  if (v.is_int()) {
    const int64_t x = v.AsInt();
    return WriteBytes(f, &x, sizeof(x), path);
  }
  return WriteString(f, v.AsString(), path);
}

Status ReadBytes(std::FILE* f, void* data, size_t n,
                 const std::string& path) {
  if (std::fread(data, 1, n, f) != n) {
    return Status::OutOfRange("truncated relation file '" + path + "'");
  }
  return Status::OK();
}

Result<uint64_t> ReadU64(std::FILE* f, const std::string& path) {
  uint64_t v = 0;
  DBS3_RETURN_IF_ERROR(ReadBytes(f, &v, sizeof(v), path));
  return v;
}

/// Reads a length-prefixed string. The length comes from the file, so it is
/// checked against the bytes the file has left before anything is
/// allocated for it.
Result<std::string> ReadString(std::FILE* f, uint64_t file_size,
                               const std::string& path) {
  DBS3_ASSIGN_OR_RETURN(const uint64_t n, ReadU64(f, path));
  const long pos = std::ftell(f);
  if (pos < 0 || n > file_size - static_cast<uint64_t>(pos)) {
    return Status::OutOfRange("string length exceeds the bytes left in '" +
                              path + "'");
  }
  std::string s(n, '\0');
  DBS3_RETURN_IF_ERROR(ReadBytes(f, s.data(), n, path));
  return s;
}

/// Reads one value of a column typed `type`; a value whose tag disagrees
/// with its column is malformed input.
Result<Value> ReadValue(std::FILE* f, ValueType type, uint64_t file_size,
                        const std::string& path) {
  uint8_t tag = 0;
  DBS3_RETURN_IF_ERROR(ReadBytes(f, &tag, 1, path));
  if (tag != (type == ValueType::kInt64 ? 0 : 1)) {
    return Status::OutOfRange("value tag does not match its column type in '" +
                              path + "'");
  }
  if (tag == 0) {
    int64_t x = 0;
    DBS3_RETURN_IF_ERROR(ReadBytes(f, &x, sizeof(x), path));
    return Value(x);
  }
  DBS3_ASSIGN_OR_RETURN(std::string s, ReadString(f, file_size, path));
  return Value(std::move(s));
}

}  // namespace

Status WriteRelation(const Relation& relation, const std::string& path) {
  File file(path, "wb");
  if (!file.ok()) {
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  std::FILE* f = file.get();
  DBS3_RETURN_IF_ERROR(WriteBytes(f, &kMagic, sizeof(kMagic), path));
  DBS3_RETURN_IF_ERROR(WriteBytes(f, &kVersion, sizeof(kVersion), path));
  DBS3_RETURN_IF_ERROR(WriteString(f, relation.name(), path));
  // Schema.
  DBS3_RETURN_IF_ERROR(WriteU64(f, relation.schema().num_columns(), path));
  for (const Column& c : relation.schema().columns()) {
    DBS3_RETURN_IF_ERROR(WriteString(f, c.name, path));
    const uint8_t type = c.type == ValueType::kInt64 ? 0 : 1;
    DBS3_RETURN_IF_ERROR(WriteBytes(f, &type, 1, path));
  }
  // Partitioning.
  DBS3_RETURN_IF_ERROR(WriteU64(f, relation.partition_column(), path));
  const uint8_t kind =
      relation.partitioner().kind() == PartitionKind::kHash ? 0 : 1;
  DBS3_RETURN_IF_ERROR(WriteBytes(f, &kind, 1, path));
  DBS3_RETURN_IF_ERROR(WriteU64(f, relation.degree(), path));
  // Fragments.
  for (size_t i = 0; i < relation.degree(); ++i) {
    const Fragment& frag = relation.fragment(i);
    DBS3_RETURN_IF_ERROR(WriteU64(f, frag.tuples.size(), path));
    for (const Tuple& t : frag.tuples) {
      for (const Value& v : t.values()) {
        DBS3_RETURN_IF_ERROR(WriteValue(f, v, path));
      }
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Relation>> ReadRelation(const std::string& path) {
  File file(path, "rb");
  if (!file.ok()) {
    return Status::NotFound("cannot open relation file '" + path + "'");
  }
  std::FILE* f = file.get();
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::Internal("cannot seek in relation file '" + path + "'");
  }
  const long file_size = std::ftell(f);
  if (file_size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::Internal("cannot size relation file '" + path + "'");
  }
  const uint64_t size = static_cast<uint64_t>(file_size);
  uint32_t magic = 0, version = 0;
  DBS3_RETURN_IF_ERROR(ReadBytes(f, &magic, sizeof(magic), path));
  if (magic != kMagic) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a DBS3 relation file");
  }
  DBS3_RETURN_IF_ERROR(ReadBytes(f, &version, sizeof(version), path));
  if (version != kVersion) {
    return Status::InvalidArgument(
        "unsupported relation file version " + std::to_string(version) +
        " in '" + path + "' (this build reads version " +
        std::to_string(kVersion) + ")");
  }
  DBS3_ASSIGN_OR_RETURN(std::string name, ReadString(f, size, path));
  DBS3_ASSIGN_OR_RETURN(const uint64_t num_columns, ReadU64(f, path));
  if (num_columns == 0 || num_columns > 4096) {
    return Status::OutOfRange("implausible column count in '" + path + "'");
  }
  std::vector<Column> columns;
  for (uint64_t c = 0; c < num_columns; ++c) {
    Column col;
    DBS3_ASSIGN_OR_RETURN(col.name, ReadString(f, size, path));
    uint8_t type = 0;
    DBS3_RETURN_IF_ERROR(ReadBytes(f, &type, 1, path));
    if (type > 1) {
      return Status::OutOfRange("bad column type in '" + path + "'");
    }
    col.type = type == 0 ? ValueType::kInt64 : ValueType::kString;
    columns.push_back(std::move(col));
  }
  DBS3_ASSIGN_OR_RETURN(const uint64_t partition_column, ReadU64(f, path));
  if (partition_column >= num_columns) {
    return Status::OutOfRange("partition column out of range in '" + path +
                              "'");
  }
  uint8_t kind = 0;
  DBS3_RETURN_IF_ERROR(ReadBytes(f, &kind, 1, path));
  if (kind > 1) {
    return Status::OutOfRange("bad partitioning kind in '" + path + "'");
  }
  DBS3_ASSIGN_OR_RETURN(const uint64_t degree, ReadU64(f, path));
  if (degree == 0 || degree > (1ull << 24)) {
    return Status::OutOfRange("implausible degree in '" + path + "'");
  }
  auto relation = std::make_unique<Relation>(
      std::move(name), Schema(std::move(columns)), partition_column,
      Partitioner(kind == 0 ? PartitionKind::kHash : PartitionKind::kModulo,
                  degree));
  const Schema& schema = relation->schema();
  for (uint64_t i = 0; i < degree; ++i) {
    DBS3_ASSIGN_OR_RETURN(const uint64_t tuples, ReadU64(f, path));
    for (uint64_t t = 0; t < tuples; ++t) {
      RowValues values;
      values.reserve(num_columns);
      for (uint64_t c = 0; c < num_columns; ++c) {
        DBS3_ASSIGN_OR_RETURN(Value v,
                              ReadValue(f, schema.column(c).type, size, path));
        values.push_back(std::move(v));
      }
      relation->AppendToFragment(i, Tuple(std::move(values)));
    }
  }
  return relation;
}

}  // namespace dbs3
