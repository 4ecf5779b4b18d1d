#include "storage/database.h"

#include <algorithm>

#include "util/logging.h"

namespace park {

Database::Database(std::shared_ptr<SymbolTable> symbols)
    : symbols_(std::move(symbols)) {
  PARK_CHECK(symbols_ != nullptr) << "Database requires a symbol table";
}

Database Database::Clone() const {
  Database copy(symbols_);
  for (const auto& [pred, rel] : relations_) {
    copy.relations_.emplace(pred, rel.Clone());
  }
  copy.total_atoms_ = total_atoms_;
  return copy;
}

const Relation* Database::FindRelation(PredicateId predicate) const {
  if (const Relation* cached = last_.Get(predicate)) return cached;
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Database::FindRelation(PredicateId predicate) {
  if (Relation* cached = last_.Get(predicate)) return cached;
  auto it = relations_.find(predicate);
  if (it == relations_.end()) return nullptr;
  last_.Set(predicate, &it->second);
  return &it->second;
}

bool Database::Insert(const GroundAtom& atom) {
  Relation& rel = GetOrCreateRelation(atom.predicate(), atom.arity());
  bool added = rel.Insert(atom.args());
  if (added) ++total_atoms_;
  return added;
}

std::pair<std::span<const Value>, bool> Database::Emplace(AtomView atom) {
  Relation& rel = GetOrCreateRelation(atom.predicate,
                                      static_cast<int>(atom.args.size()));
  auto stored = rel.Emplace(atom.args);
  if (stored.second) ++total_atoms_;
  return stored;
}

bool Database::InsertAtom(std::string_view predicate,
                          const std::vector<std::string>& args) {
  PredicateId pred = symbols_->InternPredicate(
      predicate, static_cast<int>(args.size()));
  Tuple tuple;
  for (const std::string& arg : args) {
    tuple.Append(ConstantFromText(arg, *symbols_));
  }
  return Insert(GroundAtom(pred, std::move(tuple)));
}

void Database::InsertAll(Database&& other) {
  PARK_CHECK(other.symbols_ == symbols_)
      << "InsertAll across symbol tables";
  for (auto& [pred, rel] : other.relations_) {
    auto it = relations_.find(pred);
    if (it == relations_.end()) {
      rel.DropColumnar();
      total_atoms_ += rel.size();
      relations_.emplace(pred, std::move(rel));
      continue;
    }
    Relation& target = it->second;
    PARK_CHECK_EQ(target.arity(), rel.arity())
        << "predicate " << symbols_->PredicateName(pred)
        << " used with inconsistent arity";
    rel.ForEach([&](std::span<const Value> row) {
      if (target.Insert(row)) ++total_atoms_;
    });
  }
  other.relations_.clear();
  other.last_.Forget();
  other.total_atoms_ = 0;
}

bool Database::Erase(AtomView atom) {
  Relation* rel = FindRelation(atom.predicate);
  if (rel == nullptr) return false;
  bool removed = rel->Erase(atom.args);
  if (removed) --total_atoms_;
  return removed;
}

bool Database::Contains(const GroundAtom& atom) const {
  const Relation* rel = FindRelation(atom.predicate());
  return rel != nullptr && rel->Contains(atom.args());
}

bool Database::Contains(PredicateId predicate, const Value* args,
                        size_t n) const {
  const Relation* rel = FindRelation(predicate);
  return rel != nullptr && rel->Contains({args, n});
}

const Relation* Database::GetRelation(PredicateId predicate) const {
  return FindRelation(predicate);
}

Relation& Database::GetOrCreateRelation(PredicateId predicate, int arity) {
  if (Relation* rel = FindRelation(predicate)) {
    PARK_CHECK_EQ(rel->arity(), arity)
        << "predicate " << symbols_->PredicateName(predicate)
        << " used with inconsistent arity";
    return *rel;
  }
  Relation& created =
      relations_.emplace(predicate, Relation(arity)).first->second;
  last_.Set(predicate, &created);
  return created;
}

void Database::ForEach(
    const std::function<void(const GroundAtom&)>& fn) const {
  for (const auto& [pred, rel] : relations_) {
    rel.ForEach([&](std::span<const Value> row) {
      fn(GroundAtom(AtomView{pred, row}));
    });
  }
}

void Database::FreezeIndexes() const {
  for (const auto& [pred, rel] : relations_) rel.FreezeIndexes();
}

void Database::ThawIndexes() const {
  for (const auto& [pred, rel] : relations_) rel.ThawIndexes();
}

void Database::CompactColumnar() const {
  for (const auto& [pred, rel] : relations_) rel.CompactColumnar();
}

std::vector<std::string> Database::SortedAtomStrings() const {
  std::vector<std::string> out;
  out.reserve(total_atoms_);
  ForEach([&](const GroundAtom& atom) {
    out.push_back(atom.ToString(*symbols_));
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::string Database::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const std::string& atom : SortedAtomStrings()) {
    if (!first) out += ", ";
    out += atom;
    first = false;
  }
  out += "}";
  return out;
}

namespace {

/// Appends every atom of `from` that `other` lacks to `out`.
void AppendMissing(const Database& from, const Database& other,
                   std::vector<GroundAtom>& out) {
  from.ForEachRelation([&](PredicateId pred, const Relation& rel) {
    rel.ForEach([&](std::span<const Value> row) {
      if (!other.Contains(pred, row.data(), row.size())) {
        out.emplace_back(AtomView{pred, row});
      }
    });
  });
}

}  // namespace

bool Database::SameAtoms(const Database& other) const {
  if (total_atoms_ != other.total_atoms_) return false;
  bool same = true;
  for (const auto& [pred, rel] : relations_) {
    rel.ForEach([&](std::span<const Value> row) {
      same = same && other.Contains(pred, row.data(), row.size());
    });
  }
  return same;
}

Database::Diff Database::DiffWith(const Database& other) const {
  Diff diff;
  AppendMissing(*this, other, diff.only_in_this);
  AppendMissing(other, *this, diff.only_in_other);
  std::sort(diff.only_in_this.begin(), diff.only_in_this.end());
  std::sort(diff.only_in_other.begin(), diff.only_in_other.end());
  return diff;
}

}  // namespace park
