#include "storage/atom_table.h"

#include <algorithm>

namespace park {
namespace {

// Smallest slot table; tables double from here.
constexpr size_t kMinSlots = 16;

}  // namespace

void AtomTable::Clear() {
  if (!atoms_.empty()) std::fill(slots_.begin(), slots_.end(), Slot{});
  atoms_.clear();
}

void AtomTable::Release() {
  slots_ = {};
  atoms_ = {};
}

void AtomTable::Grow() {
  // Stored hashes place every entry again: no atom is reread or rehashed.
  std::vector<Slot> grown(slots_.empty() ? kMinSlots : slots_.size() * 2);
  const size_t mask = grown.size() - 1;
  for (const Slot& s : slots_) {
    if (s.id == kAbsent) continue;
    size_t i = s.hash & mask;
    while (grown[i].id != kAbsent) i = (i + 1) & mask;
    grown[i] = s;
  }
  slots_ = std::move(grown);
}

}  // namespace park
