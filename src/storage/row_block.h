#ifndef DBS3_STORAGE_ROW_BLOCK_H_
#define DBS3_STORAGE_ROW_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace dbs3 {

/// Row storage: every Tuple's value array is carved out of the calling
/// thread's current block with a pointer bump instead of one `malloc` per
/// row (DESIGN §10, "Row blocks").
///
/// A block is 64 KB from `operator new`. Its first cache line holds
/// only the block's atomic live count; the rest is handed out as slices,
/// each a kHeaderBytes header naming the block followed by the values. A
/// slice may be freed on any thread, at any time — after its relation, its
/// Database or the thread that allocated it are gone: freeing reads the
/// header and decrements the block's count, never thread-local state. The
/// count is biased while the owning thread still carves from the block, so
/// the owner pays no atomic per allocation; the thread that brings the
/// count to zero after the owner has moved on returns the block to
/// `operator delete`. Nothing keeps dead blocks. A live slice keeps its
/// whole block alive.
///
/// Slices over kMaxBlockSliceBytes (header included), and every slice a
/// thread asks for after its block cache was destroyed at thread exit, are
/// their own `operator new` allocation behind a header naming no block.
///
/// Under AddressSanitizer every header and every freed slice is poisoned,
/// so a use after free of a row, or an overflow into the next one, is still
/// reported per row. Outside ASan the poisoning compiles to nothing.
namespace row_block {

/// Size of one block, its first cache line (the live count) included.
inline constexpr size_t kBlockBytes = size_t{64} * 1024;
/// Size of the header in front of every slice. Keeps values 16-aligned.
inline constexpr size_t kHeaderBytes = 16;
/// Largest slice, header included, carved from a block (127 16-byte
/// values). Larger arrays get their own allocation.
inline constexpr size_t kMaxBlockSliceBytes = 2048;

/// `bytes` of storage aligned to 16, from the calling thread's block.
void* Allocate(size_t bytes);

/// Frees a slice returned by Allocate(`bytes`). Any thread.
void Free(void* p, size_t bytes) noexcept;

/// While a ScratchScope lives on a thread, that thread carves its slices
/// from a second chain of blocks, apart from the rows it makes otherwise.
/// It is for rows that die young on a thread that also makes rows that
/// live long: a dead row keeps its block alive as long as any live row in
/// it. The spill paths read rows back and copy build partitions inside a
/// scope, so a read-back row never shares a block with a result row the
/// same thread stores (DESIGN §10). Scopes nest; only the outermost one
/// switches chains. Construct and destroy a scope on the same thread.
class ScratchScope {
 public:
  ScratchScope();
  ~ScratchScope();

  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

 private:
  bool engaged_;  // False once the thread's block cache is destroyed.
};

/// Blocks currently allocated: carved from by a thread, or holding at
/// least one live slice. One relaxed atomic per block create or free.
int64_t LiveBlocks();

/// Slices handed out since the process started, by every thread. Each
/// thread counts its own with plain relaxed stores; the read sums them.
/// Exact for every slice whose allocation happens-before the read (for a
/// query's rows: after its `Take()`).
uint64_t SlicesAllocated();

}  // namespace row_block

/// A stateless allocator over row_block, for `std::vector`. All instances
/// are interchangeable, so moving a vector steals its slice and
/// `sizeof(std::vector<T, RowAllocator<T>>)` is that of a plain vector.
template <typename T>
class RowAllocator {
 public:
  static_assert(alignof(T) <= 16, "row slices are 16-aligned");
  using value_type = T;
  using is_always_equal = std::true_type;

  RowAllocator() noexcept = default;
  template <typename U>
  RowAllocator(const RowAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(row_block::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    row_block::Free(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const RowAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace dbs3

#endif  // DBS3_STORAGE_ROW_BLOCK_H_
