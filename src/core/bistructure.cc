#include "core/bistructure.h"

#include <algorithm>

namespace park {
namespace {

/// True iff sorted vector `a` is a subset of sorted vector `b`.
bool SortedSubset(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace

std::string BiStructureSnapshot::ToString() const {
  std::string out = "<{";
  for (size_t i = 0; i < blocked.size(); ++i) {
    if (i > 0) out += ", ";
    out += blocked[i];
  }
  out += "}, {";
  for (size_t i = 0; i < interpretation.size(); ++i) {
    if (i > 0) out += ", ";
    out += interpretation[i];
  }
  out += "}>";
  return out;
}

BiStructureSnapshot SnapshotBiStructure(const BlockedSet& blocked,
                                        const IInterpretation& interp,
                                        const Program& program) {
  BiStructureSnapshot snapshot;
  snapshot.blocked = RenderSortedGroundings(blocked, program);
  snapshot.interpretation = interp.SortedLiteralStrings();
  return snapshot;
}

bool BiStructureLeq(const BiStructureSnapshot& a,
                    const BiStructureSnapshot& b) {
  if (a.blocked == b.blocked) {
    return SortedSubset(a.interpretation, b.interpretation);
  }
  return a.blocked.size() < b.blocked.size() &&
         SortedSubset(a.blocked, b.blocked);
}

}  // namespace park
