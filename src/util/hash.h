// Hash combining utilities used by the storage layer's hash tables.

#ifndef PARK_UTIL_HASH_H_
#define PARK_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace park {

/// Mixes `value` into `seed` (boost-style combine with a 64-bit constant).
inline size_t HashCombine(size_t seed, size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

/// Finalizer applied before masking a hash to a power-of-two table.
/// HashCombine is close to affine in small integer payloads; node-based
/// sets hide that by bucketing modulo a prime, but a power-of-two mask
/// keeps only the (correlated) low bits, which clusters linear probing
/// into long runs. Two rounds of multiply-xorshift spread the entropy
/// across the word first.
inline size_t MixHash(size_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Hashes a trivially-hashable value with std::hash and combines.
template <typename T>
size_t HashCombineValue(size_t seed, const T& value) {
  return HashCombine(seed, std::hash<T>{}(value));
}

}  // namespace park

#endif  // PARK_UTIL_HASH_H_
