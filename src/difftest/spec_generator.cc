#include "difftest/spec_generator.h"

#include <utility>

#include "base/string_util.h"
#include "core/canonical.h"
#include "regex/regex.h"
#include "trace/trace.h"

namespace xmlverify {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string DifftestClassName(DifftestClass cls) {
  switch (cls) {
    case DifftestClass::kAcK: return "ack";
    case DifftestClass::kAcUnary: return "acfk";
    case DifftestClass::kAcMultiPrimary: return "pkfk";
    case DifftestClass::kAcRegular: return "reg";
    case DifftestClass::kHrc: return "hrc";
  }
  return "?";
}

Result<DifftestClass> ParseDifftestClass(const std::string& name) {
  for (DifftestClass cls : AllDifftestClasses()) {
    if (DifftestClassName(cls) == name) return cls;
  }
  return Status::InvalidArgument(
      "unknown difftest class '" + name +
      "' (expected one of: ack, acfk, pkfk, reg, hrc)");
}

std::vector<DifftestClass> AllDifftestClasses() {
  return {DifftestClass::kAcK, DifftestClass::kAcUnary,
          DifftestClass::kAcMultiPrimary, DifftestClass::kAcRegular,
          DifftestClass::kHrc};
}

std::string SpecToText(const Specification& spec) {
  return CanonicalSpecText(spec);
}

namespace {

// Deterministic helper view over the splitmix64 stream.
struct Rng {
  uint64_t state;
  uint64_t Next() { return SplitMix64(&state); }
  int Below(int n) { return n <= 1 ? 0 : static_cast<int>(Next() % n); }
  bool Chance(int percent) { return Below(100) < percent; }
};

// One randomly shaped DTD, fully planned before any Builder runs so
// the constraint planner may still adjust attribute lists (the
// multi-primary class upgrades its keyed type to two attributes).
struct DtdPlan {
  std::vector<std::string> names;               // [0] is the root "r"
  std::vector<std::vector<std::string>> attrs;  // per type
  std::vector<int> parent;   // parent[i]: ti's tree parent (root: -1)
  std::vector<Regex> contents;  // per type; pcdata symbol = names.size()
};

// Chain of type ids from the root down to `type` along tree parents
// (back-edges are extra content references, not part of the chain).
std::vector<int> ChainFromRoot(const DtdPlan& plan, int type) {
  std::vector<int> chain;
  for (int cur = type; cur != -1; cur = plan.parent[cur]) chain.push_back(cur);
  return std::vector<int>(chain.rbegin(), chain.rend());
}

// Wraps one content-model occurrence of `child` in a random
// multiplicity: plain, optional, star, or plus.
Regex Occurrence(Rng* rng, int child, bool allow_star) {
  Regex sym = Regex::Symbol(child);
  int mod = rng->Below(allow_star ? 4 : 2);
  switch (mod) {
    case 1: return Regex::Union(sym, Regex::Epsilon());
    case 2: return Regex::Star(sym);
    case 3: return Regex::Concat(sym, Regex::Star(sym));
    default: return sym;
  }
}

DtdPlan PlanDtd(Rng* rng, const SpecGeneratorOptions& options) {
  DtdPlan plan;
  int num_extra = 1 + rng->Below(options.max_extra_types);
  int num_types = 1 + num_extra;
  plan.names.push_back("r");
  for (int i = 0; i < num_extra; ++i) {
    plan.names.push_back(StrCat("t", std::to_string(i)));
  }
  // Every type gets attribute "a", half also get "b": enough raw
  // material for unary and multi-attribute constraints alike.
  for (int type = 0; type < num_types; ++type) {
    std::vector<std::string> attrs = {"a"};
    if (rng->Chance(50)) attrs.push_back("b");
    plan.attrs.push_back(std::move(attrs));
  }
  // Attach each extra type under the root or an earlier extra type:
  // the parent forest keeps the DTD connected by construction.
  plan.parent.assign(num_types, -1);
  std::vector<std::vector<int>> children(num_types);
  for (int i = 1; i < num_types; ++i) {
    int parent = rng->Below(i);  // any type declared before ti
    plan.parent[i] = parent;
    children[parent].push_back(i);
  }
  int pcdata = num_types;
  for (int type = 0; type < num_types; ++type) {
    std::vector<Regex> groups;
    for (int child : children[type]) {
      groups.push_back(Occurrence(rng, child, options.allow_star));
    }
    // Occasionally fold the first two children into a choice, so
    // content models exercise union, not just concatenation.
    if (groups.size() >= 2 && rng->Chance(20)) {
      Regex merged = Regex::Union(groups[0], groups[1]);
      groups.erase(groups.begin());
      groups[0] = std::move(merged);
    }
    // Optional text content, always nullable so witness builders that
    // skip text keep a conforming choice available.
    if (rng->Chance(20)) {
      Regex text = Regex::Symbol(pcdata);
      groups.push_back(options.allow_star && rng->Chance(50)
                           ? Regex::Star(text)
                           : Regex::Union(text, Regex::Epsilon()));
    }
    // Recursion: a back-edge from a non-root type to a non-root type
    // declared no later than it (self-loops included; the root is
    // never a target, per Definition 2.1). A rare mandatory back-edge
    // deliberately produces an unsatisfiable DTD — every procedure
    // must then agree on INCONSISTENT.
    if (type != 0 && options.allow_recursion && rng->Chance(25)) {
      int target = 1 + rng->Below(type);  // extra types t0..t{type-1}
      Regex back = Regex::Symbol(target);
      if (rng->Chance(10)) {
        groups.push_back(std::move(back));  // mandatory: unproductive
      } else if (options.allow_star && rng->Chance(50)) {
        groups.push_back(Regex::Star(back));
      } else {
        groups.push_back(Regex::Union(back, Regex::Epsilon()));
      }
    }
    plan.contents.push_back(groups.empty() ? Regex::Epsilon()
                                           : Regex::ConcatAll(groups));
  }
  return plan;
}

Result<Dtd> BuildFromPlan(const DtdPlan& plan) {
  Dtd::Builder builder(plan.names, plan.names[0]);
  for (size_t type = 0; type < plan.names.size(); ++type) {
    for (const std::string& attr : plan.attrs[type]) {
      builder.AddAttribute(plan.names[type], attr);
    }
    builder.SetContent(plan.names[type], plan.contents[type]);
  }
  return builder.Build();
}

// A (type, attribute) pick among the planned types.
struct AttrPick {
  int type;
  std::string attribute;
};

AttrPick PickAttr(Rng* rng, const DtdPlan& plan) {
  int type = rng->Below(static_cast<int>(plan.names.size()));
  const std::vector<std::string>& attrs = plan.attrs[type];
  return {type, attrs[rng->Below(static_cast<int>(attrs.size()))]};
}

AttrPick PickNonRootAttr(Rng* rng, const DtdPlan& plan) {
  int type = 1 + rng->Below(static_cast<int>(plan.names.size()) - 1);
  const std::vector<std::string>& attrs = plan.attrs[type];
  return {type, attrs[rng->Below(static_cast<int>(attrs.size()))]};
}

// Path expression r....tau for a regular constraint: either the
// concrete tree chain or the abbreviated r._*.tau form.
Regex PathTo(Rng* rng, const DtdPlan& plan, int type) {
  if (type != 0 && rng->Chance(50)) {
    return Regex::Concat(
        Regex::Concat(Regex::Symbol(0), Regex::Star(Regex::Wildcard())),
        Regex::Symbol(type));
  }
  std::vector<int> chain = ChainFromRoot(plan, type);
  std::vector<Regex> parts;
  parts.reserve(chain.size());
  for (int link : chain) parts.push_back(Regex::Symbol(link));
  return Regex::ConcatAll(parts);
}

void GenerateAbsolute(Rng* rng, const DtdPlan& plan, DifftestClass cls,
                      int count, ConstraintSet* constraints) {
  for (int i = 0; i < count; ++i) {
    bool inclusion =
        cls == DifftestClass::kAcUnary && (i == 0 || rng->Chance(50));
    if (!inclusion) {
      AttrPick key = PickAttr(rng, plan);
      constraints->Add(AbsoluteKey{key.type, {key.attribute}});
      continue;
    }
    AttrPick child = PickAttr(rng, plan);
    AttrPick parent = PickAttr(rng, plan);
    AbsoluteInclusion inc{
        child.type, {child.attribute}, parent.type, {parent.attribute}};
    if (rng->Chance(50)) {
      constraints->AddForeignKey(std::move(inc));
    } else {
      constraints->Add(std::move(inc));
    }
  }
}

void GenerateMultiPrimary(Rng* rng, DtdPlan* plan, int count,
                          ConstraintSet* constraints) {
  int num_types = static_cast<int>(plan->names.size());
  // Force one genuinely multi-attribute key so the spec classifies as
  // AC^{*,1} rather than collapsing into the unary classes; the keyed
  // type is upgraded to two attributes if the plan gave it one.
  int keyed = rng->Below(num_types);
  if (plan->attrs[keyed].size() < 2) plan->attrs[keyed].push_back("b");
  std::vector<bool> has_key(num_types, false);
  has_key[keyed] = true;
  constraints->Add(AbsoluteKey{keyed, {"a", "b"}});
  for (int i = 1; i < count; ++i) {
    if (rng->Chance(40)) {
      // Another primary key, on a type that has none yet: at most one
      // key per type keeps the key set trivially disjoint.
      int type = rng->Below(num_types);
      if (has_key[type]) continue;
      has_key[type] = true;
      if (plan->attrs[type].size() >= 2 && rng->Chance(50)) {
        constraints->Add(AbsoluteKey{type, {"a", "b"}});
      } else {
        constraints->Add(AbsoluteKey{type, {plan->attrs[type][0]}});
      }
      continue;
    }
    AttrPick child = PickAttr(rng, *plan);
    AttrPick parent = PickAttr(rng, *plan);
    AbsoluteInclusion inc{
        child.type, {child.attribute}, parent.type, {parent.attribute}};
    // A foreign key would add a unary key on the parent type; keep the
    // key set disjoint by only doing that to a type without one.
    if (!has_key[parent.type] && rng->Chance(50)) {
      has_key[parent.type] = true;
      constraints->AddForeignKey(std::move(inc));
    } else {
      constraints->Add(std::move(inc));
    }
  }
}

void GenerateRegular(Rng* rng, const DtdPlan& plan, int count,
                     ConstraintSet* constraints) {
  for (int i = 0; i < count; ++i) {
    // After the forced first regular constraint, sometimes mix in an
    // absolute unary key: the regular checker folds it as r._*.tau.
    if (i > 0 && rng->Chance(30)) {
      AttrPick key = PickAttr(rng, plan);
      constraints->Add(AbsoluteKey{key.type, {key.attribute}});
      continue;
    }
    if (rng->Chance(60)) {
      AttrPick key = PickAttr(rng, plan);
      // The path to the root is the bare root symbol, so a root
      // regular key prints exactly like an absolute key and the parser
      // canonicalizes it to one; store the canonical form directly so
      // the emitted text is a SpecToText fixed point. The forced first
      // constraint must stay genuinely regular: retarget it at a
      // non-root type (the plan always has at least one).
      if (key.type == 0 && i == 0) {
        key = PickNonRootAttr(rng, plan);
      }
      if (key.type == 0) {
        constraints->Add(AbsoluteKey{key.type, {key.attribute}});
      } else {
        constraints->Add(
            RegularKey{PathTo(rng, plan, key.type), key.type, key.attribute});
      }
      continue;
    }
    AttrPick child = PickAttr(rng, plan);
    AttrPick parent = PickAttr(rng, plan);
    if (child.type == 0 && parent.type == 0) {
      if (i == 0) {
        child = PickNonRootAttr(rng, plan);  // keep the class regular
      } else {
        // Both paths would be the bare root symbol: same canonical-form
        // story as above, the parser reads this back as absolute.
        constraints->Add(AbsoluteInclusion{
            child.type, {child.attribute}, parent.type, {parent.attribute}});
        continue;
      }
    }
    RegularInclusion inc{PathTo(rng, plan, child.type),
                         child.type,
                         child.attribute,
                         PathTo(rng, plan, parent.type),
                         parent.type,
                         parent.attribute};
    if (rng->Chance(40)) {
      if (parent.type == 0) {
        // The implied parent key's path would be the bare root symbol
        // (canonically an absolute key — see above); add the pieces
        // separately in canonical form.
        constraints->Add(AbsoluteKey{parent.type, {parent.attribute}});
        constraints->Add(std::move(inc));
      } else {
        constraints->AddForeignKey(std::move(inc));
      }
    } else {
      constraints->Add(std::move(inc));
    }
  }
}

void GenerateRelative(Rng* rng, const DtdPlan& plan, int count,
                      ConstraintSet* constraints) {
  int num_types = static_cast<int>(plan.names.size());
  // descendants[c]: strict descendants of c in the parent forest.
  std::vector<std::vector<int>> descendants(num_types);
  for (int type = 1; type < num_types; ++type) {
    for (int cur = plan.parent[type]; cur != -1; cur = plan.parent[cur]) {
      descendants[cur].push_back(type);
    }
  }
  auto pick_scoped = [&](int context) {
    const std::vector<int>& pool = descendants[context];
    int type = pool[rng->Below(static_cast<int>(pool.size()))];
    const std::vector<std::string>& attrs = plan.attrs[type];
    return AttrPick{type, attrs[rng->Below(static_cast<int>(attrs.size()))]};
  };
  for (int i = 0; i < count; ++i) {
    // Mixing in an absolute key yields the kMixedRelative class, which
    // the hierarchical checker folds as a context-root constraint.
    if (i > 0 && rng->Chance(30)) {
      AttrPick key = PickAttr(rng, plan);
      constraints->Add(AbsoluteKey{key.type, {key.attribute}});
      continue;
    }
    // Contexts with no strict descendants can't scope anything; the
    // root always qualifies (there are always >= 2 types).
    int context = rng->Below(num_types);
    if (descendants[context].empty()) context = 0;
    if (rng->Chance(60)) {
      AttrPick key = pick_scoped(context);
      constraints->Add(RelativeKey{context, key.type, key.attribute});
      continue;
    }
    AttrPick child = pick_scoped(context);
    AttrPick parent = pick_scoped(context);
    RelativeInclusion inc{context, child.type, child.attribute, parent.type,
                          parent.attribute};
    if (rng->Chance(40)) {
      constraints->AddForeignKey(std::move(inc));
    } else {
      constraints->Add(std::move(inc));
    }
  }
}

}  // namespace

Result<GeneratedSpec> GenerateSpec(uint64_t seed, DifftestClass cls,
                                   const SpecGeneratorOptions& options) {
  trace::Count("difftest/generated");
  // Decorrelate (seed, class) pairs: the same seed under different
  // classes must not replay the same structural choices.
  Rng rng{seed * 0x9e3779b97f4a7c15ULL +
          static_cast<uint64_t>(cls) * 0xda942042e4dd58b5ULL + 1};

  SpecGeneratorOptions effective = options;
  if (cls == DifftestClass::kHrc) {
    // The relative-geometry analysis (and with it the hierarchical
    // checker) requires a non-recursive DTD.
    effective.allow_recursion = false;
  }

  int count = 1 + rng.Below(effective.max_constraints);
  DtdPlan plan = PlanDtd(&rng, effective);

  ConstraintSet constraints;
  switch (cls) {
    case DifftestClass::kAcK:
    case DifftestClass::kAcUnary:
      GenerateAbsolute(&rng, plan, cls, count, &constraints);
      break;
    case DifftestClass::kAcMultiPrimary:
      GenerateMultiPrimary(&rng, &plan, count, &constraints);
      break;
    case DifftestClass::kAcRegular:
      GenerateRegular(&rng, plan, count, &constraints);
      break;
    case DifftestClass::kHrc:
      GenerateRelative(&rng, plan, count, &constraints);
      break;
  }

  GeneratedSpec result;
  ASSIGN_OR_RETURN(result.spec.dtd, BuildFromPlan(plan));
  result.spec.constraints = std::move(constraints);

  Status valid = result.spec.constraints.Validate(result.spec.dtd);
  if (!valid.ok()) {
    return Status::Internal("generator produced an invalid constraint set (" +
                            valid.message() + ")");
  }
  result.text = SpecToText(result.spec);
  return result;
}

}  // namespace xmlverify
