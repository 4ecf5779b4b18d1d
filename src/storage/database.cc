#include "storage/database.h"

#include <algorithm>

#include "util/logging.h"

namespace park {

/// Recycled relations, Reset, in their map nodes, the empty maps of
/// retired databases (see Database::Recycle), and the row hints of
/// Database::Pooled.
struct Database::RelationPool {
  std::vector<RelationMap::node_type> nodes;
  std::vector<RelationMap> maps;
  size_t bytes = 0;  // NodeBytes over `nodes` plus MapBytes over `maps`
  // row_hints[p]: the rows predicate p's relation held when it last left
  // a pooled database whole (InsertAll), at most kMaxHintRows; 0 if none
  // ever did.
  std::vector<size_t> row_hints;
  // The most rows a slot table of kRetainedSectionBytes holds.
  static constexpr size_t kMaxHintRows =
      kRetainedSectionBytes / (2 * Relation::kSlotBytes);

  static size_t NodeBytes(const Relation& rel) {
    return sizeof(RelationMap::value_type) + rel.capacity_bytes();
  }
  static size_t MapBytes(const RelationMap& map) {
    return map.bucket_count() * sizeof(void*);
  }
};

Database::RelationPool& Database::ThreadRelationPool() {
  thread_local RelationPool pool;
  return pool;
}

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
      if (other.pooled_) {
        std::vector<size_t>& hints = ThreadRelationPool().row_hints;
        if (hints.size() <= pred) hints.resize(size_t{pred} + 1);
        hints[pred] = std::min(rel.size(), RelationPool::kMaxHintRows);
      }
      rel.ThawIndexes();
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
  RelationPool& pool = ThreadRelationPool();
  Relation* created;
  if (pool.nodes.empty()) {
    created = &relations_.emplace(predicate, Relation(arity)).first->second;
  } else {
    RelationMap::node_type node = std::move(pool.nodes.back());
    pool.nodes.pop_back();
    pool.bytes -= RelationPool::NodeBytes(node.mapped());
    node.key() = predicate;
    if (node.mapped().arity() != arity) node.mapped().Reset(arity);
    created = &relations_.insert(std::move(node)).position->second;
  }
  if (pooled_ && predicate < pool.row_hints.size() &&
      pool.row_hints[predicate] > 0) {
    created->Reserve(pool.row_hints[predicate]);
  }
  last_.Set(predicate, created);
  return *created;
}

void Database::Recycle() {
  RelationPool& pool = ThreadRelationPool();
  while (!relations_.empty()) {
    RelationMap::node_type node = relations_.extract(relations_.begin());
    Relation& rel = node.mapped();
    rel.Reset(rel.arity());
    const size_t bytes = RelationPool::NodeBytes(rel);
    if (pool.bytes + bytes > kRetainedSectionBytes) continue;  // freed
    pool.bytes += bytes;
    pool.nodes.push_back(std::move(node));
  }
  total_atoms_ = 0;
  last_.Forget();
}

void Database::Retire() {
  Recycle();
  RelationPool& pool = ThreadRelationPool();
  const size_t bytes = RelationPool::MapBytes(relations_);
  // A map that never held a relation has no bucket array to keep.
  if (relations_.bucket_count() > 1 &&
      pool.bytes + bytes <= kRetainedSectionBytes) {
    pool.bytes += bytes;
    pool.maps.push_back(std::move(relations_));
  }
  relations_ = RelationMap();
}

Database Database::Pooled(std::shared_ptr<SymbolTable> symbols) {
  Database db(std::move(symbols));
  db.pooled_ = true;
  RelationPool& pool = ThreadRelationPool();
  if (!pool.maps.empty()) {
    pool.bytes -= RelationPool::MapBytes(pool.maps.back());
    db.relations_ = std::move(pool.maps.back());
    pool.maps.pop_back();
  }
  return db;
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
