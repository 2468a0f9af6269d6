// Property sweep: the polynomial absolute-implication fast path and
// the general regular-path machinery must agree verdict-for-verdict
// on small absolute specifications.
#include <gtest/gtest.h>

#include "base/string_util.h"
#include "core/implication.h"
#include "core/specification.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The general machinery, forced: express phi over r._*.tau paths so
// CheckKeyImplication's absolute fast path is bypassed.
Result<ImplicationVerdict> ViaRegularMachinery(const Specification& spec,
                                               const AbsoluteKey* key,
                                               const AbsoluteInclusion* inc) {
  auto path_of = [&spec](int type) {
    return Regex::Concat(
        Regex::Concat(Regex::Symbol(spec.dtd.root()),
                      Regex::Star(Regex::Wildcard())),
        Regex::Symbol(type));
  };
  if (key != nullptr) {
    return CheckKeyImplication(
        spec.dtd, spec.constraints,
        RegularKey{path_of(key->type), key->type, key->attributes[0]});
  }
  return CheckInclusionImplication(
      spec.dtd, spec.constraints,
      RegularInclusion{path_of(inc->child_type), inc->child_type,
                       inc->child_attributes[0], path_of(inc->parent_type),
                       inc->parent_type, inc->parent_attributes[0]});
}

class ImplicationAgreementSweep : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ImplicationAgreementSweep, FastPathMatchesGeneralMachinery) {
  uint64_t state = GetParam();
  const int num_types = 3;
  // Small random DTD and unary constraint set (as in the oracle
  // sweep, but smaller so the regular machinery stays fast).
  std::string dtd_text = "<!ELEMENT r (";
  int groups = 2 + NextRandom(&state) % 2;
  for (int g = 0; g < groups; ++g) {
    if (g > 0) dtd_text += ",";
    int t = NextRandom(&state) % num_types;
    if (NextRandom(&state) % 2 == 0) {
      dtd_text += StrCat("t", std::to_string(t));
    } else {
      dtd_text += "(t" + std::to_string(t) + "|%)";
    }
  }
  dtd_text += ",(t0|%),(t1|%),(t2|%))>\n";
  for (int t = 0; t < num_types; ++t) {
    dtd_text += "<!ATTLIST t" + std::to_string(t) + " v>\n";
  }
  std::string constraints;
  int num_constraints = NextRandom(&state) % 3;
  for (int c = 0; c < num_constraints; ++c) {
    int t1 = NextRandom(&state) % num_types;
    int t2 = NextRandom(&state) % num_types;
    if (NextRandom(&state) % 2 == 0) {
      constraints += StrCat("t", std::to_string(t1), ".v -> t",
                            std::to_string(t1), "\n");
    } else {
      constraints += "fk t" + std::to_string(t1) + ".v <= t" +
                     std::to_string(t2) + ".v\n";
    }
  }
  ASSERT_OK_AND_ASSIGN(Specification spec,
                       Specification::Parse(dtd_text, constraints));

  // Random phi: a key or an inclusion.
  int pt1 = NextRandom(&state) % num_types;
  int pt2 = NextRandom(&state) % num_types;
  ASSERT_OK_AND_ASSIGN(int type1,
                       spec.dtd.TypeId(StrCat("t", std::to_string(pt1))));
  ASSERT_OK_AND_ASSIGN(int type2,
                       spec.dtd.TypeId(StrCat("t", std::to_string(pt2))));
  if (NextRandom(&state) % 2 == 0) {
    AbsoluteKey phi{type1, {"v"}};
    ASSERT_OK_AND_ASSIGN(ImplicationVerdict fast,
                         CheckKeyImplication(spec.dtd, spec.constraints, phi));
    ASSERT_OK_AND_ASSIGN(ImplicationVerdict general,
                         ViaRegularMachinery(spec, &phi, nullptr));
    EXPECT_EQ(fast.implied, general.implied)
        << spec.ToString() << "phi: " << phi.ToString(spec.dtd);
  } else {
    AbsoluteInclusion phi{type1, {"v"}, type2, {"v"}};
    ASSERT_OK_AND_ASSIGN(
        ImplicationVerdict fast,
        CheckInclusionImplication(spec.dtd, spec.constraints, phi));
    ASSERT_OK_AND_ASSIGN(ImplicationVerdict general,
                         ViaRegularMachinery(spec, nullptr, &phi));
    EXPECT_EQ(fast.implied, general.implied)
        << spec.ToString() << "phi: " << phi.ToString(spec.dtd);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationAgreementSweep,
                         ::testing::Range(uint64_t{0}, uint64_t{30}));

}  // namespace
}  // namespace xmlverify
