#include "storage/value.h"

#include "common/hash.h"

namespace dbs3 {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

void Value::AssignString(const Value& other) {
  if (other.is_int()) {
    delete str_;
    int_ = other.int_;
    tag_ = kIntTag;
  } else if (is_int()) {
    str_ = new std::string(*other.str_);
    tag_ = kStringTag;
  } else {
    // String onto string: reuse this value's buffer, so recycled chunk
    // slots of string columns stay allocation-free.
    *str_ = *other.str_;
  }
}

uint64_t Value::Hash() const {
  if (is_int()) return HashInt64(static_cast<uint64_t>(AsInt()));
  return HashBytes(AsString());
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(AsInt());
  return AsString();
}

}  // namespace dbs3
