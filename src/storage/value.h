#ifndef DBS3_STORAGE_VALUE_H_
#define DBS3_STORAGE_VALUE_H_

#include <cassert>
#include <cstdint>
#include <string>

namespace dbs3 {

/// Column data types. The Wisconsin benchmark needs exactly integers and
/// fixed-width strings, so the type system stays deliberately small.
enum class ValueType { kInt64, kString };

/// Name of a ValueType ("int64" / "string").
const char* ValueTypeName(ValueType type);

/// A single attribute value: a 64-bit integer or a string.
///
/// Sixteen bytes: the integer inline, or an owned heap `std::string`, plus a
/// one-byte type tag. Rows travel by value through every activation queue,
/// so the row width is paid on every hop and on every first touch; keeping
/// ints (every Wisconsin column) inline and narrow is what the layout is
/// for. Copying, assigning, moving or destroying an int never touches the
/// heap. Copy-assigning a string onto a string reuses the target's buffer;
/// copy-constructing a string allocates the string object as well as its
/// characters. A moved-from Value is the default Value (the integer 0).
/// Self-assignment and self-move leave the value unchanged.
class Value {
 public:
  /// Default-constructs the integer 0.
  Value() noexcept : int_(0), tag_(kIntTag) {}
  explicit Value(int64_t v) noexcept : int_(v), tag_(kIntTag) {}
  explicit Value(std::string v)
      : str_(new std::string(std::move(v))), tag_(kStringTag) {}

  Value(const Value& other) : tag_(other.tag_) {
    if (other.is_int()) {
      int_ = other.int_;
    } else {
      str_ = new std::string(*other.str_);
    }
  }

  Value(Value&& other) noexcept : tag_(other.tag_) {
    if (other.is_int()) {
      int_ = other.int_;
    } else {
      str_ = other.str_;
    }
    other.int_ = 0;
    other.tag_ = kIntTag;
  }

  Value& operator=(const Value& other) {
    if (is_int() && other.is_int()) {
      int_ = other.int_;
    } else if (this != &other) {
      AssignString(other);
    }
    return *this;
  }

  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      if (!is_int()) delete str_;
      tag_ = other.tag_;
      if (other.is_int()) {
        int_ = other.int_;
      } else {
        str_ = other.str_;
      }
      other.int_ = 0;
      other.tag_ = kIntTag;
    }
    return *this;
  }

  ~Value() {
    if (!is_int()) delete str_;
  }

  ValueType type() const { return static_cast<ValueType>(tag_); }
  bool is_int() const { return tag_ == kIntTag; }

  /// The integer payload. Requires is_int().
  int64_t AsInt() const {
    assert(is_int());
    return int_;
  }

  /// The integer payload, or nullptr for strings. The columnar batch view
  /// uses this to gather a chunk's column into a contiguous int64 array.
  const int64_t* TryInt() const { return is_int() ? &int_ : nullptr; }

  /// The string payload. Requires !is_int().
  const std::string& AsString() const {
    assert(!is_int());
    return *str_;
  }

  /// A well-distributed 64-bit hash of the value; equal values hash equally.
  uint64_t Hash() const;

  /// Debug/benchmark rendering: the integer in decimal, or the raw string.
  std::string ToString() const;

  bool operator==(const Value& other) const {
    if (tag_ != other.tag_) return false;
    return is_int() ? int_ == other.int_ : *str_ == *other.str_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Orders ints before strings, then by payload. Total order for sorting.
  bool operator<(const Value& other) const {
    if (tag_ != other.tag_) return tag_ < other.tag_;
    return is_int() ? int_ < other.int_ : *str_ < *other.str_;
  }

 private:
  static constexpr uint8_t kIntTag = static_cast<uint8_t>(ValueType::kInt64);
  static constexpr uint8_t kStringTag =
      static_cast<uint8_t>(ValueType::kString);
  static_assert(kIntTag < kStringTag, "ints must order before strings");

  /// Copy assignment when at least one side holds a string and the two are
  /// distinct objects.
  void AssignString(const Value& other);

  union {
    int64_t int_;
    std::string* str_;  // Owned; live exactly when tag_ == kStringTag.
  };
  uint8_t tag_;
};

static_assert(sizeof(Value) == 16, "Value must stay 16 bytes");

}  // namespace dbs3

#endif  // DBS3_STORAGE_VALUE_H_
