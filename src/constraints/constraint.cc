#include "constraints/constraint.h"

#include <algorithm>
#include <set>

#include "base/string_util.h"

namespace xmlverify {

namespace {

std::string AttrList(const std::vector<std::string>& attributes) {
  if (attributes.size() == 1) return "." + attributes[0];
  return StrCat("[", Join(attributes, ","), "]");
}

std::string PathString(const Regex& path, const Dtd& dtd) {
  return path.ToString([&dtd](int symbol) { return dtd.SymbolName(symbol); });
}

Status CheckTypeAttribute(const Dtd& dtd, int type,
                          const std::string& attribute,
                          const std::string& what) {
  if (type < 0 || type >= dtd.num_element_types()) {
    return Status::InvalidArgument(what + ": bad element type id " +
                                   std::to_string(type));
  }
  if (!dtd.HasAttribute(type, attribute)) {
    return Status::InvalidArgument(
        what + ": attribute '" + attribute + "' is not in R(" +
        dtd.TypeName(type) + ")");
  }
  return Status::OK();
}

}  // namespace

std::string AbsoluteKey::ToString(const Dtd& dtd) const {
  return dtd.TypeName(type) + AttrList(attributes) + " -> " +
         dtd.TypeName(type);
}

std::string AbsoluteInclusion::ToString(const Dtd& dtd) const {
  return dtd.TypeName(child_type) + AttrList(child_attributes) + " <= " +
         dtd.TypeName(parent_type) + AttrList(parent_attributes);
}

std::string RegularKey::ToString(const Dtd& dtd) const {
  std::string path = PathString(node_path, dtd);
  return path + "." + attribute + " -> " + path;
}

std::string RegularInclusion::ToString(const Dtd& dtd) const {
  return PathString(child_path, dtd) + "." + child_attribute + " <= " +
         PathString(parent_path, dtd) + "." + parent_attribute;
}

std::string RelativeKey::ToString(const Dtd& dtd) const {
  return dtd.TypeName(context) + "(" + dtd.TypeName(type) + "." + attribute +
         " -> " + dtd.TypeName(type) + ")";
}

std::string RelativeInclusion::ToString(const Dtd& dtd) const {
  return dtd.TypeName(context) + "(" + dtd.TypeName(child_type) + "." +
         child_attribute + " <= " + dtd.TypeName(parent_type) + "." +
         parent_attribute + ")";
}

void ConstraintSet::AddForeignKey(AbsoluteInclusion inclusion) {
  for (const AbsoluteKey& key : absolute_keys_) {
    if (key.type == inclusion.parent_type &&
        key.attributes == inclusion.parent_attributes) {
      Add(std::move(inclusion));
      return;
    }
  }
  Add(AbsoluteKey{inclusion.parent_type, inclusion.parent_attributes});
  Add(std::move(inclusion));
}

void ConstraintSet::AddForeignKey(RegularInclusion inclusion) {
  // Regex equality is not checked here (it is semantic); the key is
  // added unconditionally and duplicate keys are harmless.
  Add(RegularKey{inclusion.parent_path, inclusion.parent_type,
                 inclusion.parent_attribute});
  Add(std::move(inclusion));
}

void ConstraintSet::AddForeignKey(RelativeInclusion inclusion) {
  for (const RelativeKey& key : relative_keys_) {
    if (key.context == inclusion.context &&
        key.type == inclusion.parent_type &&
        key.attribute == inclusion.parent_attribute) {
      Add(std::move(inclusion));
      return;
    }
  }
  Add(RelativeKey{inclusion.context, inclusion.parent_type,
                  inclusion.parent_attribute});
  Add(std::move(inclusion));
}

bool ConstraintSet::empty() const { return size() == 0; }

int ConstraintSet::size() const {
  return static_cast<int>(absolute_keys_.size() + absolute_inclusions_.size() +
                          regular_keys_.size() + regular_inclusions_.size() +
                          relative_keys_.size() + relative_inclusions_.size());
}

bool ConstraintSet::AllAbsoluteUnary() const {
  for (const AbsoluteKey& key : absolute_keys_) {
    if (!key.IsUnary()) return false;
  }
  for (const AbsoluteInclusion& inclusion : absolute_inclusions_) {
    if (!inclusion.IsUnary()) return false;
  }
  return true;
}

bool ConstraintSet::AbsoluteInclusionsUnary() const {
  for (const AbsoluteInclusion& inclusion : absolute_inclusions_) {
    if (!inclusion.IsUnary()) return false;
  }
  return true;
}

bool ConstraintSet::AbsoluteKeysPrimary() const {
  std::set<int> keyed;
  for (const AbsoluteKey& key : absolute_keys_) {
    if (!keyed.insert(key.type).second) return false;
  }
  return true;
}

bool ConstraintSet::AbsoluteKeysDisjoint() const {
  for (size_t i = 0; i < absolute_keys_.size(); ++i) {
    for (size_t j = i + 1; j < absolute_keys_.size(); ++j) {
      if (absolute_keys_[i].type != absolute_keys_[j].type) continue;
      // Exact duplicates state the same constraint and are harmless.
      if (absolute_keys_[i].attributes == absolute_keys_[j].attributes) {
        continue;
      }
      for (const std::string& attribute : absolute_keys_[i].attributes) {
        const std::vector<std::string>& other = absolute_keys_[j].attributes;
        if (std::find(other.begin(), other.end(), attribute) != other.end()) {
          return false;
        }
      }
    }
  }
  return true;
}

Status ConstraintSet::Validate(const Dtd& dtd) const {
  for (const AbsoluteKey& key : absolute_keys_) {
    if (key.attributes.empty()) {
      return Status::InvalidArgument("key with empty attribute set");
    }
    std::set<std::string> unique(key.attributes.begin(), key.attributes.end());
    if (unique.size() != key.attributes.size()) {
      return Status::InvalidArgument("key with repeated attribute: " +
                                     key.ToString(dtd));
    }
    for (const std::string& attribute : key.attributes) {
      RETURN_IF_ERROR(
          CheckTypeAttribute(dtd, key.type, attribute, key.ToString(dtd)));
    }
  }
  for (const AbsoluteInclusion& inclusion : absolute_inclusions_) {
    if (inclusion.child_attributes.empty() ||
        inclusion.child_attributes.size() !=
            inclusion.parent_attributes.size()) {
      return Status::InvalidArgument("inclusion arity mismatch: " +
                                     inclusion.ToString(dtd));
    }
    for (const std::string& attribute : inclusion.child_attributes) {
      RETURN_IF_ERROR(CheckTypeAttribute(dtd, inclusion.child_type, attribute,
                                         inclusion.ToString(dtd)));
    }
    for (const std::string& attribute : inclusion.parent_attributes) {
      RETURN_IF_ERROR(CheckTypeAttribute(dtd, inclusion.parent_type, attribute,
                                         inclusion.ToString(dtd)));
    }
  }
  for (const RegularKey& key : regular_keys_) {
    RETURN_IF_ERROR(
        CheckTypeAttribute(dtd, key.type, key.attribute, key.ToString(dtd)));
  }
  for (const RegularInclusion& inclusion : regular_inclusions_) {
    RETURN_IF_ERROR(CheckTypeAttribute(dtd, inclusion.child_type,
                                       inclusion.child_attribute,
                                       inclusion.ToString(dtd)));
    RETURN_IF_ERROR(CheckTypeAttribute(dtd, inclusion.parent_type,
                                       inclusion.parent_attribute,
                                       inclusion.ToString(dtd)));
  }
  for (const RelativeKey& key : relative_keys_) {
    if (key.context < 0 || key.context >= dtd.num_element_types()) {
      return Status::InvalidArgument("bad context type in relative key");
    }
    RETURN_IF_ERROR(
        CheckTypeAttribute(dtd, key.type, key.attribute, key.ToString(dtd)));
  }
  for (const RelativeInclusion& inclusion : relative_inclusions_) {
    if (inclusion.context < 0 ||
        inclusion.context >= dtd.num_element_types()) {
      return Status::InvalidArgument("bad context type in relative inclusion");
    }
    RETURN_IF_ERROR(CheckTypeAttribute(dtd, inclusion.child_type,
                                       inclusion.child_attribute,
                                       inclusion.ToString(dtd)));
    RETURN_IF_ERROR(CheckTypeAttribute(dtd, inclusion.parent_type,
                                       inclusion.parent_attribute,
                                       inclusion.ToString(dtd)));
  }
  return Status::OK();
}

std::string ConstraintSet::ToString(const Dtd& dtd) const {
  std::string out;
  for (const AbsoluteKey& c : absolute_keys_) out += c.ToString(dtd) + "\n";
  for (const AbsoluteInclusion& c : absolute_inclusions_) {
    out += c.ToString(dtd) + "\n";
  }
  for (const RegularKey& c : regular_keys_) out += c.ToString(dtd) + "\n";
  for (const RegularInclusion& c : regular_inclusions_) {
    out += c.ToString(dtd) + "\n";
  }
  for (const RelativeKey& c : relative_keys_) out += c.ToString(dtd) + "\n";
  for (const RelativeInclusion& c : relative_inclusions_) {
    out += c.ToString(dtd) + "\n";
  }
  return out;
}

}  // namespace xmlverify
