#include "reference/reference_park.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>

#include "engine/interpretation.h"
#include "engine/rule_grounding.h"
#include "util/string_util.h"

namespace park {
namespace reference {
namespace {

using Marks = std::set<GroundAtom>;
/// Head atom -> the groundings commanding (or having derived) it.
using Derivers = std::map<GroundAtom, std::set<RuleGrounding>>;

/// P_U: P plus one body-less rule `-> ±a` per update.
Result<Program> WithUpdates(const Program& program,
                            const std::vector<Update>& updates) {
  Program extended = program.Clone();
  for (const Update& update : updates) {
    RuleParts parts;
    parts.head.action = update.action;
    parts.head.atom.predicate = update.atom.predicate();
    for (const Value& v : update.atom.args().values()) {
      parts.head.atom.terms.push_back(Term::Constant(v));
    }
    PARK_RETURN_IF_ERROR(extended.AddRule(Rule(std::move(parts))));
  }
  return extended;
}

GroundAtom Ground(const AtomPattern& pattern,
                  const std::vector<Value>& binding) {
  std::vector<Value> args;
  for (const Term& t : pattern.terms) {
    args.push_back(t.is_variable()
                       ? binding[static_cast<size_t>(t.var_index())]
                       : t.constant());
  }
  return GroundAtom(pattern.predicate, Tuple(std::move(args)));
}

class Evaluator {
 public:
  Evaluator(const Database& db, const Program& program)
      : db_(db), program_(program) {
    std::set<Value> domain;
    db.ForEach([&](const GroundAtom& atom) {
      base_.insert(atom);
      domain.insert(atom.args().values().begin(), atom.args().values().end());
    });
    auto add_constants = [&](const AtomPattern& pattern) {
      for (const Term& t : pattern.terms) {
        if (t.is_constant()) domain.insert(t.constant());
      }
    };
    for (const Rule& rule : program.rules()) {
      for (const BodyLiteral& lit : rule.body()) add_constants(lit.atom);
      add_constants(rule.head().atom);
    }
    domain_.assign(domain.begin(), domain.end());
  }

  Result<ReferenceRun> Run(ConflictResolutionPolicy& policy,
                           BlockGranularity granularity) {
    ReferenceRun run;
    run.ground_instances = GroundInstances();
    for (;;) {
      // Γ(P,B)(I): every non-blocked grounding whose body is valid in I.
      Derivers fire_plus;
      Derivers fire_minus;
      for (const Rule& rule : program_.rules()) {
        ForEachValidBinding(rule, [&](const std::vector<Value>& binding) {
          RuleGrounding g(rule.index(), Tuple(binding));
          if (blocked_.count(g) > 0) return;
          Derivers& fired = rule.head().action == ActionKind::kInsert
                                ? fire_plus
                                : fire_minus;
          fired[Ground(rule.head().atom, binding)].insert(std::move(g));
        });
      }
      Marks clashing;
      for (const auto& [atom, by] : fire_plus) {
        if (minus_.count(atom) > 0 || fire_minus.count(atom) > 0) {
          clashing.insert(atom);
        }
      }
      for (const auto& [atom, by] : fire_minus) {
        if (plus_.count(atom) > 0) clashing.insert(atom);
      }

      if (clashing.empty()) {
        size_t fresh = 0;
        for (const auto& [atom, by] : fire_plus) fresh += !plus_.count(atom);
        for (const auto& [atom, by] : fire_minus) fresh += !minus_.count(atom);
        if (fresh == 0) break;  // Γ(P,B)(I) = I
        Apply(fire_plus, plus_, plus_provenance_);
        Apply(fire_minus, minus_, minus_provenance_);
        ++run.gamma_steps;
        continue;
      }

      // conflicts(P, I) over the clashing atoms, in atom order.
      std::vector<Conflict> conflicts;
      for (const GroundAtom& atom : clashing) {
        const std::vector<RuleGrounding> ins =
            Side(fire_plus, plus_provenance_, atom);
        const std::vector<RuleGrounding> del =
            Side(fire_minus, minus_provenance_, atom);
        if (ins.empty() || del.empty()) {
          return InternalError("reference conflict with an empty side");
        }
        conflicts.emplace_back(atom, Views(ins), Views(del));
      }
      if (granularity == BlockGranularity::kFirstConflictOnly) {
        conflicts.resize(1);
      }

      // SELECT against I as it stands, then block the losing sides.
      IInterpretation view(&db_);
      for (const auto& [atom, by] : plus_provenance_) {
        for (const RuleGrounding& g : by) {
          view.AddMarked(ActionKind::kInsert, atom, g);
        }
      }
      for (const auto& [atom, by] : minus_provenance_) {
        for (const RuleGrounding& g : by) {
          view.AddMarked(ActionKind::kDelete, atom, g);
        }
      }
      const PolicyContext context{db_, program_, view,
                                  static_cast<int>(run.restarts)};
      size_t newly_blocked = 0;
      for (const Conflict& conflict : conflicts) {
        PARK_ASSIGN_OR_RETURN(Vote vote, policy.Select(context, conflict));
        if (vote == Vote::kAbstain) {
          return AbortedError("the policy abstained");
        }
        for (GroundingView g : vote == Vote::kInsert
                                   ? conflict.deleters()
                                   : conflict.inserters()) {
          newly_blocked += blocked_.insert(RuleGrounding(g)).second;
        }
      }
      if (newly_blocked == 0) {
        return AbortedError("a resolution blocked no new instance");
      }

      // Restart from I°.
      plus_.clear();
      minus_.clear();
      plus_provenance_.clear();
      minus_provenance_.clear();
      ++run.restarts;
      run.blocked_sizes.push_back(blocked_.size());
    }

    for (const GroundAtom& atom : plus_) {
      if (minus_.count(atom) > 0) run.consistent = false;
    }
    // incorp(I) = (I° ∪ {a | +a ∈ I⁺}) − {a | -a ∈ I⁻}.
    run.database = base_;
    run.database.insert(plus_.begin(), plus_.end());
    for (const GroundAtom& atom : minus_) run.database.erase(atom);

    const SymbolTable& symbols = *program_.symbols();
    for (const RuleGrounding& g : blocked_) {
      run.blocked.push_back(g.ToString(program_, symbols));
    }
    std::sort(run.blocked.begin(), run.blocked.end());
    auto render = [&](const char* sign, const Derivers& provenance) {
      for (const auto& [atom, by] : provenance) {
        std::vector<std::string> names;
        for (const RuleGrounding& g : by) {
          names.push_back(g.ToString(program_, symbols));
        }
        std::sort(names.begin(), names.end());
        run.provenance.push_back(sign + atom.ToString(symbols) + " <- " +
                                 Join(names, ", "));
      }
    };
    render("+", plus_provenance_);
    render("-", minus_provenance_);
    std::sort(run.provenance.begin(), run.provenance.end());
    return run;
  }

 private:
  /// Validity of a ground literal in I (§4.2 conditions, §4.3 events).
  bool Valid(LiteralKind kind, const GroundAtom& atom) const {
    const bool unmarked = base_.count(atom) > 0;
    const bool plus = plus_.count(atom) > 0;
    const bool minus = minus_.count(atom) > 0;
    switch (kind) {
      case LiteralKind::kPositive: return unmarked || plus;
      case LiteralKind::kNegated: return minus || (!unmarked && !plus);
      case LiteralKind::kEventInsert: return plus;
      case LiteralKind::kEventDelete: return minus;
    }
    return false;
  }

  /// Calls `fn` with every binding of the rule's variables over the
  /// active domain whose body literals are all valid. Variables are bound
  /// in index order and each literal is checked as soon as its last
  /// variable is bound, which prunes without changing the result.
  void ForEachValidBinding(
      const Rule& rule,
      const std::function<void(const std::vector<Value>&)>& fn) const {
    const size_t num_vars = static_cast<size_t>(rule.num_variables());
    // check_after[v + 1]: the literals whose largest variable index is v.
    std::vector<std::vector<const BodyLiteral*>> check_after(num_vars + 1);
    for (const BodyLiteral& lit : rule.body()) {
      int last = -1;
      for (const Term& t : lit.atom.terms) {
        if (t.is_variable()) last = std::max(last, t.var_index());
      }
      check_after[static_cast<size_t>(last + 1)].push_back(&lit);
    }
    std::vector<Value> binding(num_vars);
    auto holds = [&](size_t slot) {
      for (const BodyLiteral* lit : check_after[slot]) {
        if (!Valid(lit->kind, Ground(lit->atom, binding))) return false;
      }
      return true;
    };
    std::function<void(size_t)> bind = [&](size_t var) {
      if (var == num_vars) {
        fn(binding);
        return;
      }
      for (const Value& v : domain_) {
        binding[var] = v;
        if (holds(var + 1)) bind(var + 1);
      }
    };
    if (holds(0)) bind(0);
  }

  static void Apply(const Derivers& fired, Marks& marks,
                    Derivers& provenance) {
    for (const auto& [atom, by] : fired) {
      marks.insert(atom);
      provenance[atom].insert(by.begin(), by.end());
    }
  }

  /// One conflict side: the groundings commanding the atom now, plus the
  /// provenance of the atom's mark if I already holds it.
  static std::vector<RuleGrounding> Side(const Derivers& fired,
                                         const Derivers& provenance,
                                         const GroundAtom& atom) {
    std::set<RuleGrounding> side;
    if (auto it = fired.find(atom); it != fired.end()) {
      side.insert(it->second.begin(), it->second.end());
    }
    if (auto it = provenance.find(atom); it != provenance.end()) {
      side.insert(it->second.begin(), it->second.end());
    }
    return std::vector<RuleGrounding>(side.begin(), side.end());
  }

  static std::vector<GroundingView> Views(
      const std::vector<RuleGrounding>& side) {
    return std::vector<GroundingView>(side.begin(), side.end());
  }

  size_t GroundInstances() const {
    constexpr size_t kMax = std::numeric_limits<size_t>::max();
    size_t total = 0;
    for (const Rule& rule : program_.rules()) {
      size_t n = 1;
      for (int v = 0; v < rule.num_variables(); ++v) {
        n = domain_.empty() ? 0
            : n > kMax / domain_.size() ? kMax
                                        : n * domain_.size();
      }
      total = n > kMax - total ? kMax : total + n;
    }
    return total;
  }

  const Database& db_;
  const Program& program_;
  std::vector<Value> domain_;
  Marks base_;
  Marks plus_;
  Marks minus_;
  Derivers plus_provenance_;
  Derivers minus_provenance_;
  std::set<RuleGrounding> blocked_;
};

}  // namespace

Result<ReferenceRun> ReferencePark(const Database& db, const Program& program,
                                   const std::vector<Update>& updates,
                                   const PolicyPtr& policy,
                                   BlockGranularity granularity) {
  PARK_ASSIGN_OR_RETURN(Program extended, WithUpdates(program, updates));
  Evaluator evaluator(db, extended);
  return evaluator.Run(*policy, granularity);
}

}  // namespace reference
}  // namespace park
