// Arena: a bump allocator for per-task scratch memory.
//
// The body matcher's compiled execution path (engine/matcher.cc) allocates
// a substitution frame plus one candidate buffer per generator step for
// every rule it matches — thousands of tiny, identically-shaped
// allocations per Γ step. An Arena turns each of those into a pointer
// bump: memory is carved from geometrically growing chunks, nothing is
// ever freed individually, and Reset() rewinds to empty while KEEPING the
// chunks, so steady-state matching performs zero heap allocation once the
// high-water mark is reached.
//
// Restrictions, by design:
//   - Alloc'd objects are never destroyed: only trivially destructible
//     types may live in an arena (enforced by AllocArray).
//   - Not thread-safe. Each worker thread owns its own Arena (the matcher
//     keeps one per thread in thread-local scratch).

#ifndef PARK_UTIL_ARENA_H_
#define PARK_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace park {

class Arena {
 public:
  /// `first_chunk_bytes` sizes the initial chunk; subsequent chunks double
  /// until kMaxChunkBytes.
  explicit Arena(size_t first_chunk_bytes = kDefaultChunkBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Never returns nullptr; Alloc(0) returns a valid unique pointer.
  void* Alloc(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Typed array allocation. T must be trivially destructible (nothing in
  /// an arena is ever destroyed) — trivially copyable covers every matcher
  /// scratch type (Value, const Value*, int).
  template <typename T>
  T* AllocArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T*>(Alloc(n * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty, keeping every chunk for reuse. O(#chunks).
  void Reset();

  /// A position in the allocation stream. Allocations are properly nested
  /// in the matcher (a step's buffers are fully grown before the next
  /// step's begin), so rewinding to a mark reclaims everything allocated
  /// after it — the backtracking executor's per-step undo.
  struct Mark {
    size_t chunk = 0;
    uint8_t* cursor = nullptr;
    uint8_t* limit = nullptr;
    size_t used = 0;
  };
  Mark mark() const { return Mark{active_chunk_, cursor_, limit_, bytes_used_}; }
  void Rewind(Mark m) {
    active_chunk_ = m.chunk;
    cursor_ = m.cursor;
    limit_ = m.limit;
    bytes_used_ = m.used;
  }

  /// Bytes handed out since the last Reset (diagnostics).
  size_t bytes_used() const { return bytes_used_; }
  /// Bytes of chunk capacity currently owned (the high-water footprint).
  size_t bytes_reserved() const { return bytes_reserved_; }

  static constexpr size_t kDefaultChunkBytes = 16 * 1024;
  static constexpr size_t kMaxChunkBytes = 4 * 1024 * 1024;

 private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
  };

  /// Makes `cursor_`/`limit_` span a chunk with >= `bytes` free.
  void NextChunk(size_t bytes);

  std::vector<Chunk> chunks_;
  size_t active_chunk_ = 0;  // index into chunks_ the cursor points into
  uint8_t* cursor_ = nullptr;
  uint8_t* limit_ = nullptr;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  size_t next_chunk_bytes_;
};

/// A minimal growable array living entirely in an Arena: push_back doubles
/// into fresh arena storage and memcpy's (T must be trivially copyable).
/// Discarded wholesale by Arena::Reset — never destroyed. Used for the
/// matcher's candidate buffers, whose size is unknown until the candidate
/// scan finishes.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVec grows by memcpy");

 public:
  /// A default-constructed ArenaVec is empty and must be assigned a real
  /// one before push_back (scratch slots are rebound to an arena per use).
  ArenaVec() : arena_(nullptr) {}
  explicit ArenaVec(Arena* arena) : arena_(arena) {}

  void push_back(T v) {
    if (size_ == capacity_) Grow();
    data_[size_++] = v;
  }

  void clear() { size_ = 0; }  // keeps capacity (arena storage)

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  void Grow() {
    size_t new_capacity = capacity_ == 0 ? 16 : capacity_ * 2;
    T* new_data = arena_->AllocArray<T>(new_capacity);
    if (size_ > 0) std::memcpy(new_data, data_, size_ * sizeof(T));
    data_ = new_data;
    capacity_ = new_capacity;
  }

  Arena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace park

#endif  // PARK_UTIL_ARENA_H_
