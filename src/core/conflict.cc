#include "core/conflict.h"

#include <algorithm>
#include <span>
#include <utility>

#include "storage/atom_table.h"
#include "util/logging.h"

namespace park {
namespace {

/// RuleGrounding::operator< on views: rule, then binding
/// lexicographically (Tuple's vector<Value> order).
bool GroundingLess(const GroundingView& a, const GroundingView& b) {
  if (a.rule_index != b.rule_index) return a.rule_index < b.rule_index;
  const size_t n = std::min(a.binding.size(), b.binding.size());
  for (size_t i = 0; i < n; ++i) {
    if (a.binding[i] != b.binding[i]) return a.binding[i] < b.binding[i];
  }
  return a.binding.size() < b.binding.size();
}

bool GroundingEq(const GroundingView& a, const GroundingView& b) {
  return a.rule_index == b.rule_index &&
         std::ranges::equal(a.binding, b.binding);
}

/// What BuildConflicts keeps on a thread between conflict rounds, within
/// kRetainedSectionBytes: the conflicting atoms' table and the arrays that
/// group the section's groundings by (conflict, side).
struct ConflictScratch {
  AtomTable atoms;
  std::vector<std::pair<uint32_t, uint32_t>> hits;  // (group, record)
  std::vector<uint32_t> group_start;  // by group, then the end
  std::vector<uint32_t> group_fill;
  std::vector<GroundingView> grouped;  // group by group
  std::vector<GroundingView> side;     // one side with its provenance

  size_t RetainedBytes() const {
    return atoms.capacity_bytes() + hits.capacity() * sizeof(hits[0]) +
           (group_start.capacity() + group_fill.capacity()) *
               sizeof(uint32_t) +
           (grouped.capacity() + side.capacity()) * sizeof(GroundingView);
  }

  void TrimToCap() {
    if (RetainedBytes() <= kRetainedSectionBytes) return;
    atoms.Release();
    hits = {};
    group_start = {};
    group_fill = {};
    grouped = {};
    side = {};
  }
};

ConflictScratch& ThreadScratch() {
  thread_local ConflictScratch scratch;
  return scratch;
}

/// Builds one conflict side from a group of the section's groundings:
/// with the atom's `provenance` on that side, if it has any, sorted and
/// de-duplicated, then copied once into an exactly reserved vector.
/// `scratch` holds the union when there is provenance to merge in.
std::vector<RuleGrounding> BuildSide(
    std::span<GroundingView> group,
    const std::vector<RuleGrounding>* provenance,
    std::vector<GroundingView>& scratch) {
  std::span<GroundingView> views = group;
  if (provenance != nullptr && !provenance->empty()) {
    scratch.assign(group.begin(), group.end());
    for (const RuleGrounding& g : *provenance) {
      scratch.push_back(GroundingView{g.rule_index(), g.binding().span()});
    }
    views = scratch;
  }
  std::sort(views.begin(), views.end(), GroundingLess);
  views = views.first(static_cast<size_t>(
      std::unique(views.begin(), views.end(), GroundingEq) - views.begin()));
  std::vector<RuleGrounding> side;
  side.reserve(views.size());
  for (const GroundingView& g : views) {
    side.emplace_back(g.rule_index, Tuple(g.binding));
  }
  return side;
}

}  // namespace

std::string Conflict::ToString(const Program& program,
                               const SymbolTable& symbols) const {
  std::string out = atom.ToString(symbols);
  out += ": ins={";
  for (size_t i = 0; i < inserters.size(); ++i) {
    if (i > 0) out += ", ";
    out += inserters[i].ToString(program, symbols);
  }
  out += "} del={";
  for (size_t i = 0; i < deleters.size(); ++i) {
    if (i > 0) out += ", ";
    out += deleters[i].ToString(program, symbols);
  }
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
  std::vector<Conflict> conflicts(count);
  s.atoms.Clear();
  for (size_t i = 0; i < count; ++i) {
    conflicts[i].atom = std::move(gamma.clashing_atoms[i]);
    s.atoms.Insert(conflicts[i].atom.view());  // id i: the atoms are distinct
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
  for (size_t c = 0; c < count; ++c) {
    Conflict& conflict = conflicts[c];
    // Provenance completion: if one side of the clash is a mark already in
    // I whose deriving bodies are no longer valid, the instances that
    // derived it are still the ones to hold responsible (DESIGN.md §2).
    // It also holds every instance an earlier step of the round fired,
    // which the semi-naive section omits.
    conflict.inserters = BuildSide(
        group_views(2 * c),
        interp.Provenance(ActionKind::kInsert, conflict.atom), s.side);
    conflict.deleters = BuildSide(
        group_views(2 * c + 1),
        interp.Provenance(ActionKind::kDelete, conflict.atom), s.side);
    PARK_CHECK(!conflict.inserters.empty() && !conflict.deleters.empty())
        << "conflict with an empty side";
  }
  s.TrimToCap();
  return conflicts;
}

}  // namespace park
