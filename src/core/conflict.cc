#include "core/conflict.h"

#include <algorithm>
#include <span>
#include <utility>

#include "storage/atom_table.h"
#include "util/logging.h"

namespace park {
namespace {

/// What BuildConflicts keeps on a thread between conflict rounds, within
/// kRetainedSectionBytes: the conflicting atoms' table and the arrays that
/// group the section's groundings by (conflict, side).
struct ConflictScratch {
  AtomTable atoms;
  std::vector<std::pair<uint32_t, uint32_t>> hits;  // (group, record)
  std::vector<uint32_t> group_start;  // by group, then the end
  std::vector<uint32_t> group_fill;
  std::vector<GroundingView> grouped;  // group by group
  // A side merged with its provenance: inserting, deleting.
  std::vector<GroundingView> side[2];

  size_t RetainedBytes() const {
    return atoms.capacity_bytes() + hits.capacity() * sizeof(hits[0]) +
           (group_start.capacity() + group_fill.capacity()) *
               sizeof(uint32_t) +
           (grouped.capacity() + side[0].capacity() + side[1].capacity()) *
               sizeof(GroundingView);
  }

  void TrimToCap() {
    if (RetainedBytes() <= kRetainedSectionBytes) return;
    atoms.Release();
    hits = {};
    group_start = {};
    group_fill = {};
    grouped = {};
    side[0] = {};
    side[1] = {};
  }
};

ConflictScratch& ThreadScratch() {
  thread_local ConflictScratch scratch;
  return scratch;
}

/// Sorts and de-duplicates one conflict side: a group of the section's
/// groundings (sorted in place) together with the atom's `provenance` on
/// that side, if it has any, which is merged in `scratch`. Returns the
/// side's views.
std::span<const GroundingView> SortSide(std::span<GroundingView> group,
                                        ProvenanceRange provenance,
                                        std::vector<GroundingView>& scratch) {
  std::span<GroundingView> views = group;
  if (!provenance.empty()) {
    scratch.assign(group.begin(), group.end());
    scratch.insert(scratch.end(), provenance.begin(), provenance.end());
    views = scratch;
  }
  std::sort(views.begin(), views.end());
  return views.first(static_cast<size_t>(
      std::unique(views.begin(), views.end()) - views.begin()));
}

}  // namespace

Conflict::Conflict(GroundAtom atom, std::span<const GroundingView> inserters,
                   std::span<const GroundingView> deleters)
    : atom(std::move(atom)), num_inserters_(inserters.size()) {
  size_t num_values = 0;
  for (const auto side : {inserters, deleters}) {
    for (const GroundingView& g : side) num_values += g.binding().size();
  }
  values_.reserve(num_values);
  refs_.reserve(inserters.size() + deleters.size() + 1);
  for (const auto side : {inserters, deleters}) {
    for (const GroundingView& g : side) {
      refs_.push_back(ConflictSide::Ref{
          g.rule_index(), static_cast<uint32_t>(values_.size())});
      values_.insert(values_.end(), g.binding().begin(), g.binding().end());
    }
  }
  refs_.push_back(
      ConflictSide::Ref{-1, static_cast<uint32_t>(values_.size())});
}

std::string Conflict::ToString(const Program& program,
                               const SymbolTable& symbols) const {
  std::string out = atom.ToString(symbols);
  auto append_side = [&](const ConflictSide& side) {
    for (size_t i = 0; i < side.size(); ++i) {
      if (i > 0) out += ", ";
      AppendGrounding(out, side[i], program, symbols);
    }
  };
  out += ": ins={";
  append_side(inserters());
  out += "} del={";
  append_side(deleters());
  out += "}";
  return out;
}

std::vector<Conflict> BuildConflicts(GammaResult gamma,
                                     const IInterpretation& interp,
                                     BlockGranularity granularity) {
  size_t count = gamma.clashing_atoms.size();
  if (granularity == BlockGranularity::kFirstConflictOnly && count > 1) {
    count = 1;  // atoms are sorted: the first conflict is the smallest atom's
  }
  ConflictScratch& s = ThreadScratch();
  s.atoms.Clear();
  for (size_t i = 0; i < count; ++i) {
    // Id i: the atoms are distinct.
    s.atoms.Insert(gamma.clashing_atoms[i].view());
  }
  // Currently firable instances — the paper's one-step lookahead. Only a
  // derivation in the clash scope can head a clashing atom, and each of
  // those keeps its grounding. Group 2c holds conflict c's inserting
  // groundings, group 2c + 1 its deleting ones, placed by one counting
  // pass as views into the arena.
  const Derivations& derived = gamma.derivations;
  const size_t groups = 2 * count;
  s.hits.clear();
  s.group_start.assign(groups + 1, 0);
  for (size_t i = 0; i < derived.size(); ++i) {
    const Derivations::Record& r = derived[i];
    if (!r.can_clash) continue;
    const uint32_t c = s.atoms.Find(derived.atom(r));
    if (c == AtomTable::kAbsent) continue;
    const uint32_t group = 2 * c + (r.action == ActionKind::kInsert ? 0 : 1);
    s.hits.emplace_back(group, static_cast<uint32_t>(i));
    ++s.group_start[group + 1];
  }
  for (size_t g = 0; g < groups; ++g) s.group_start[g + 1] += s.group_start[g];
  s.group_fill.assign(s.group_start.begin(), s.group_start.end() - 1);
  s.grouped.resize(s.hits.size());
  for (const auto& [group, record] : s.hits) {
    s.grouped[s.group_fill[group]++] = derived.grounding(derived[record]);
  }
  auto group_views = [&](size_t g) {
    return std::span<GroundingView>(s.grouped.data() + s.group_start[g],
                                    s.grouped.data() + s.group_start[g + 1]);
  };
  std::vector<Conflict> conflicts;
  conflicts.reserve(count);
  for (size_t c = 0; c < count; ++c) {
    GroundAtom& atom = gamma.clashing_atoms[c];
    // Provenance completion: if one side of the clash is a mark already in
    // I whose deriving bodies are no longer valid, the instances that
    // derived it are still the ones to hold responsible (DESIGN.md §2).
    // It also holds every instance an earlier step of the round fired,
    // which the semi-naive section omits.
    const std::span<const GroundingView> inserters = SortSide(
        group_views(2 * c), interp.Provenance(ActionKind::kInsert, atom),
        s.side[0]);
    const std::span<const GroundingView> deleters = SortSide(
        group_views(2 * c + 1), interp.Provenance(ActionKind::kDelete, atom),
        s.side[1]);
    PARK_CHECK(!inserters.empty() && !deleters.empty())
        << "conflict with an empty side";
    conflicts.emplace_back(std::move(atom), inserters, deleters);
  }
  s.TrimToCap();
  return conflicts;
}

}  // namespace park
