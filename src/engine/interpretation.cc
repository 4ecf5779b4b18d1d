#include "engine/interpretation.h"

#include <algorithm>

#include "util/logging.h"

namespace park {

IInterpretation::IInterpretation(const Database* base)
    : base_(base),
      plus_(Database::Pooled(base->symbols())),
      minus_(Database::Pooled(base->symbols())) {
  PARK_CHECK(base != nullptr) << "IInterpretation requires a base database";
}

std::pair<std::span<const Value>, bool> IInterpretation::Mark(
    ActionKind action, AtomView atom, bool can_clash) {
  Database& target = action == ActionKind::kInsert ? plus_ : minus_;
  const Database& opposite = action == ActionKind::kInsert ? minus_ : plus_;
  auto stored = target.Emplace(atom);
  if (stored.second && can_clash && opposite.Contains(atom)) {
    ++inconsistent_count_;
  }
  return stored;
}

void IInterpretation::RecordProvenance(ActionKind action, AtomView atom,
                                       GroundingView by) {
  SignProvenance& p = action == ActionKind::kInsert ? plus_provenance_
                                                    : minus_provenance_;
  uint32_t a = p.atoms.Find(atom);
  if (a == AtomTable::kAbsent) {
    // Keyed on the stored mark, which outlives the entry.
    const auto [stored, added] =
        (action == ActionKind::kInsert ? plus_ : minus_).Emplace(atom);
    PARK_CHECK(!added) << "provenance recorded for an unmarked atom";
    a = p.atoms.Insert(AtomView{atom.predicate, stored});
    p.lists.emplace_back(ProvenanceRange::kEnd, ProvenanceRange::kEnd);
  }
  const auto [g, new_grounding] = p.groundings.Emplace(by);
  if (new_grounding) {
    p.owner.push_back(a);
  } else if (p.owner[g] == a) {
    return;  // listed already
  } else {
    // One grounding recorded for a second atom: only a head-less grounding
    // (a transaction's seed) derives more than one. Listed once per atom.
    for (uint32_t l = p.lists[a].first; l != ProvenanceRange::kEnd;
         l = p.links[l].next) {
      if (p.links[l].grounding == g) return;
    }
  }
  const uint32_t link = static_cast<uint32_t>(p.links.size());
  p.links.push_back(ProvenanceRange::Link{g, ProvenanceRange::kEnd});
  auto& [first, last] = p.lists[a];
  if (first == ProvenanceRange::kEnd) {
    first = link;
  } else {
    p.links[last].next = link;
  }
  last = link;
}

bool IInterpretation::AddMarked(ActionKind action, const GroundAtom& atom,
                                GroundingView by) {
  const bool added = Mark(action, atom.view()).second;
  RecordProvenance(action, atom.view(), by);
  return added;
}

ProvenanceRange IInterpretation::Provenance(ActionKind action,
                                            AtomView atom) const {
  const SignProvenance& p = action == ActionKind::kInsert ? plus_provenance_
                                                          : minus_provenance_;
  const uint32_t a = p.atoms.Find(atom);
  if (a == AtomTable::kAbsent) return ProvenanceRange();
  return ProvenanceRange(&p.groundings, &p.links, p.lists[a].first);
}

void IInterpretation::SignProvenance::Clear() {
  groundings.Clear();
  owner.clear();
  atoms.Clear();
  lists.clear();
  links.clear();
}

IInterpretation::~IInterpretation() {
  plus_.Retire();
  minus_.Retire();
}

void IInterpretation::ClearMarks() {
  plus_.Recycle();
  minus_.Recycle();
  plus_provenance_.Clear();
  minus_provenance_.Clear();
  inconsistent_count_ = 0;
}

Database IInterpretation::Incorporate() && {
  PARK_CHECK(IsConsistent()) << "incorp on an inconsistent i-interpretation";
  Database result = base_->Clone();
  result.InsertAll(std::move(plus_));
  minus_.ForEachRelation([&](PredicateId pred, const Relation& rel) {
    rel.ForEach(
        [&](std::span<const Value> row) { result.Erase(AtomView{pred, row}); });
  });
  ClearMarks();
  return result;
}

Database::Diff IInterpretation::MarkDiff() const {
  PARK_CHECK(IsConsistent()) << "incorp on an inconsistent i-interpretation";
  Database::Diff diff;
  // Walks the marks as rows twice: once to count the atoms that enter
  // the diff, so each output vector is allocated once, and once to copy
  // them. A full run's I+ can hold many atoms already in the base, so
  // the marks' size would overshoot.
  auto collect = [&](const Database& marks, bool in_base,
                     std::vector<GroundAtom>& out) {
    auto for_each_entering = [&](auto&& fn) {
      marks.ForEachRelation([&](PredicateId pred, const Relation& rel) {
        rel.ForEach([&](std::span<const Value> row) {
          if (base_->Contains(pred, row.data(), row.size()) == in_base) {
            fn(pred, row);
          }
        });
      });
    };
    size_t n = 0;
    for_each_entering([&](PredicateId, std::span<const Value>) { ++n; });
    out.reserve(n);
    for_each_entering([&](PredicateId pred, std::span<const Value> row) {
      out.emplace_back(AtomView{pred, row});
    });
  };
  collect(plus_, false, diff.only_in_this);
  collect(minus_, true, diff.only_in_other);
  std::sort(diff.only_in_this.begin(), diff.only_in_this.end());
  std::sort(diff.only_in_other.begin(), diff.only_in_other.end());
  return diff;
}

std::vector<std::string> IInterpretation::SortedLiteralStrings() const {
  std::vector<std::string> out;
  out.reserve(base_->size() + plus_.size() + minus_.size());
  const SymbolTable& symbols = *base_->symbols();

  std::vector<std::string> unmarked;
  base_->ForEach([&](const GroundAtom& atom) {
    unmarked.push_back(atom.ToString(symbols));
  });
  std::sort(unmarked.begin(), unmarked.end());

  std::vector<std::string> plus;
  plus_.ForEach([&](const GroundAtom& atom) {
    plus.push_back("+" + atom.ToString(symbols));
  });
  std::sort(plus.begin(), plus.end());

  std::vector<std::string> minus;
  minus_.ForEach([&](const GroundAtom& atom) {
    minus.push_back("-" + atom.ToString(symbols));
  });
  std::sort(minus.begin(), minus.end());

  out.insert(out.end(), unmarked.begin(), unmarked.end());
  out.insert(out.end(), plus.begin(), plus.end());
  out.insert(out.end(), minus.begin(), minus.end());
  return out;
}

std::string IInterpretation::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const std::string& lit : SortedLiteralStrings()) {
    if (!first) out += ", ";
    out += lit;
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace park
