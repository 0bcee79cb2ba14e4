#include "storage/row_block.h"

#include <sanitizer/asan_interface.h>

#include <atomic>
#include <cassert>
#include <mutex>
#include <new>
#include <utility>

namespace dbs3 {
namespace row_block {
namespace {

constexpr size_t kCacheLine = 64;
constexpr std::align_val_t kBlockAlign{kCacheLine};

/// Added to a block's live count while its owner still carves from it, so
/// the count cannot reach zero before the owner retires the block (no
/// block holds more than kBlockBytes / kHeaderBytes slices).
constexpr uint64_t kBias = uint64_t{1} << 40;

/// The head of a block: the live count, alone on the first cache line so
/// that other threads' decrements do not false-share with the owner's
/// writes to the slices behind it.
struct alignas(kCacheLine) Block {
  std::atomic<uint64_t> live{kBias};
};
static_assert(sizeof(Block) == kCacheLine);

/// In front of every slice. `block` is null for a slice that is its own
/// `operator new` allocation; `bytes` lets Free check the size it is given.
struct SliceHeader {
  Block* block;
  size_t bytes;
};
static_assert(sizeof(SliceHeader) == kHeaderBytes);

std::atomic<int64_t> g_live_blocks{0};

/// Slices handed out on threads whose cache was already destroyed.
std::atomic<uint64_t> g_uncached_slices{0};

size_t SliceBytes(size_t bytes) {
  return kHeaderBytes + ((bytes + 15) & ~size_t{15});
}

/// Drops `n` from the block's count; the thread that brings it to zero
/// frees the block. acq_rel: every write to the block's slices happens
/// before the free.
void Release(Block* block, uint64_t n) {
  if (block->live.fetch_sub(n, std::memory_order_acq_rel) != n) return;
  g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  block->~Block();
  ::operator delete(block, kBlockBytes, kBlockAlign);
}

/// Writes the header of the slice at `at` and returns its values.
void* Carve(char* at, Block* block, size_t bytes) {
  ASAN_UNPOISON_MEMORY_REGION(at, kHeaderBytes + bytes);
  new (at) SliceHeader{block, bytes};
  ASAN_POISON_MEMORY_REGION(at, kHeaderBytes);
  return at + kHeaderBytes;
}

void* AllocateUnblocked(size_t bytes) {
  return Carve(static_cast<char*>(::operator new(kHeaderBytes + bytes)),
               nullptr, bytes);
}

struct ThreadCache;

/// Every live thread cache, for SlicesAllocated(). Never destroyed: a
/// thread may exit during static destruction. A plain std::mutex, taken
/// once per thread start and exit and per read, because a thread's cache
/// can outlive the debug lock-order recorder's per-thread state.
struct Tally {
  std::mutex mu;
  ThreadCache* head = nullptr;  // Guarded by mu.
  uint64_t exited = 0;          // Slices of exited threads; guarded by mu.
};

Tally& GetTally() {
  static Tally* const tally = new Tally;
  return *tally;
}

/// Set once the calling thread's cache is destroyed; later allocations on
/// the thread take AllocateUnblocked.
thread_local constinit bool t_cache_destroyed = false;

/// One chain of blocks a thread carves from: the current block and its bump
/// cursor.
struct Chain {
  /// Gives up the current block: removes the bias, less the slices carved.
  void Retire() {
    if (block == nullptr) return;
    Release(block, kBias - carved);
    block = nullptr;
    cursor = end = nullptr;
  }

  /// Retires the current block and starts a fresh one.
  void Refill() {
    Retire();
    void* memory = ::operator new(kBlockBytes, kBlockAlign);
    block = new (memory) Block;
    g_live_blocks.fetch_add(1, std::memory_order_relaxed);
    cursor = static_cast<char*>(memory) + sizeof(Block);
    end = static_cast<char*>(memory) + kBlockBytes;
    carved = 0;
    ASAN_POISON_MEMORY_REGION(cursor, end - cursor);
  }

  Block* block = nullptr;
  char* cursor = nullptr;
  char* end = nullptr;
  uint64_t carved = 0;  // Slices carved from `block`.
};

/// The calling thread's two chains: `active` serves Allocate, `parked` is
/// the other one, swapped in while a ScratchScope lives.
struct ThreadCache {
  ThreadCache() {
    Tally& tally = GetTally();
    std::lock_guard<std::mutex> lock(tally.mu);
    next = tally.head;
    if (next != nullptr) next->prev = this;
    tally.head = this;
  }

  ~ThreadCache() {
    active.Retire();
    parked.Retire();
    Tally& tally = GetTally();
    {
      std::lock_guard<std::mutex> lock(tally.mu);
      tally.exited += slices.load(std::memory_order_relaxed);
      if (prev != nullptr) prev->next = next;
      if (next != nullptr) next->prev = prev;
      if (tally.head == this) tally.head = next;
    }
    t_cache_destroyed = true;
  }

  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  /// Counts one slice. Single writer, so a load and a store, not an RMW.
  void CountSlice() {
    slices.store(slices.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }

  Chain active;
  Chain parked;
  int scratch_depth = 0;  // Live ScratchScopes on this thread.
  std::atomic<uint64_t> slices{0};
  ThreadCache* prev = nullptr;  // Tally links; guarded by the tally's mu.
  ThreadCache* next = nullptr;
};

thread_local ThreadCache t_cache;

}  // namespace

void* Allocate(size_t bytes) {
  if (t_cache_destroyed) {
    g_uncached_slices.fetch_add(1, std::memory_order_relaxed);
    return AllocateUnblocked(bytes);
  }
  ThreadCache& cache = t_cache;
  cache.CountSlice();
  const size_t slice = SliceBytes(bytes);
  if (slice > kMaxBlockSliceBytes) return AllocateUnblocked(bytes);
  Chain& chain = cache.active;
  if (static_cast<size_t>(chain.end - chain.cursor) < slice) chain.Refill();
  char* at = chain.cursor;
  chain.cursor += slice;
  ++chain.carved;
  return Carve(at, chain.block, bytes);
}

void Free(void* p, size_t bytes) noexcept {
  char* at = static_cast<char*>(p) - kHeaderBytes;
  ASAN_UNPOISON_MEMORY_REGION(at, kHeaderBytes);
  const auto* header = reinterpret_cast<const SliceHeader*>(at);
  assert(header->bytes == bytes);
  Block* const block = header->block;
  if (block == nullptr) {
    ::operator delete(at);
    return;
  }
  // Poison before the decrement: the decrement may free the block.
  ASAN_POISON_MEMORY_REGION(at, kHeaderBytes + bytes);
  Release(block, 1);
}

ScratchScope::ScratchScope() : engaged_(!t_cache_destroyed) {
  if (!engaged_) return;
  ThreadCache& cache = t_cache;
  if (cache.scratch_depth++ == 0) std::swap(cache.active, cache.parked);
}

ScratchScope::~ScratchScope() {
  if (!engaged_ || t_cache_destroyed) return;
  ThreadCache& cache = t_cache;
  if (--cache.scratch_depth == 0) std::swap(cache.active, cache.parked);
}

int64_t LiveBlocks() { return g_live_blocks.load(std::memory_order_relaxed); }

uint64_t SlicesAllocated() {
  Tally& tally = GetTally();
  std::lock_guard<std::mutex> lock(tally.mu);
  uint64_t total =
      tally.exited + g_uncached_slices.load(std::memory_order_relaxed);
  for (const ThreadCache* c = tally.head; c != nullptr; c = c->next) {
    total += c->slices.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace row_block
}  // namespace dbs3
