#include "core/conflict.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace park {
namespace {

void SortUnique(std::vector<RuleGrounding>& groundings) {
  std::sort(groundings.begin(), groundings.end());
  groundings.erase(std::unique(groundings.begin(), groundings.end()),
                   groundings.end());
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
  std::vector<Conflict> conflicts(count);
  std::unordered_map<GroundAtom, Conflict*, GroundAtomHash, GroundAtomEq>
      by_atom;
  by_atom.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    conflicts[i].atom = std::move(gamma.clashing_atoms[i]);
    by_atom.emplace(conflicts[i].atom, &conflicts[i]);
  }
  // Currently firable instances — the paper's one-step lookahead. Only a
  // derivation in the clash scope can head a clashing atom, and each of
  // those keeps its grounding.
  const Derivations& derived = gamma.derivations;
  for (const Derivations::Record& r : derived) {
    if (!r.can_clash) continue;
    auto it = by_atom.find(derived.atom(r));
    if (it == by_atom.end()) continue;
    Conflict& conflict = *it->second;
    const GroundingView g = derived.grounding(r);
    (r.action == ActionKind::kInsert ? conflict.inserters : conflict.deleters)
        .emplace_back(g.rule_index, Tuple(g.binding));
  }
  for (Conflict& conflict : conflicts) {
    // Provenance completion: if one side of the clash is a mark already in
    // I whose deriving bodies are no longer valid, the instances that
    // derived it are still the ones to hold responsible (DESIGN.md §2).
    // It also holds every instance an earlier step of the round fired,
    // which the semi-naive section omits.
    if (const auto* prov =
            interp.Provenance(ActionKind::kInsert, conflict.atom)) {
      conflict.inserters.insert(conflict.inserters.end(), prov->begin(),
                                prov->end());
    }
    if (const auto* prov =
            interp.Provenance(ActionKind::kDelete, conflict.atom)) {
      conflict.deleters.insert(conflict.deleters.end(), prov->begin(),
                               prov->end());
    }
    SortUnique(conflict.inserters);
    SortUnique(conflict.deleters);
    PARK_CHECK(!conflict.inserters.empty() && !conflict.deleters.empty())
        << "conflict with an empty side";
  }
  return conflicts;
}

}  // namespace park
