#include "topo/node_topology.hpp"

#include <functional>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace lama {

namespace {

// Deep copy preserving structure, os indices, and disabled flags.
std::unique_ptr<TopoObject> clone_subtree(const TopoObject& src) {
  auto copy = std::make_unique<TopoObject>(src.type(), src.os_index());
  copy->set_disabled(src.disabled());
  for (std::size_t i = 0; i < src.num_children(); ++i) {
    copy->add_child(clone_subtree(src.child(i)));
  }
  return copy;
}

// online_pus()'s walk, stopping at the first usable leaf.
bool any_online_leaf(const TopoObject& obj) {
  if (obj.disabled()) return false;
  if (obj.is_leaf()) return !obj.cpuset().empty();
  for (std::size_t i = 0; i < obj.num_children(); ++i) {
    if (any_online_leaf(obj.child(i))) return true;
  }
  return false;
}

}  // namespace

NodeTopology& NodeTopology::operator=(const NodeTopology& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  root_ = clone_subtree(*other.root_);
  finalize();
  return *this;
}

NodeTopology NodeTopology::synthetic(const std::string& description,
                                     std::string name) {
  // Parse `level:count` tokens, validating canonical order.
  std::vector<std::pair<ResourceType, std::size_t>> spec;
  int last_depth = canonical_depth(ResourceType::kNode);
  for (const std::string& token : split_ws(description)) {
    const auto colon = token.find(':');
    if (colon == std::string::npos) {
      throw ParseError("synthetic token missing ':': '" + token + "'");
    }
    const std::string keyword = to_lower(token.substr(0, colon));
    const auto type = resource_from_keyword(keyword);
    if (!type) {
      throw ParseError("unknown synthetic level: '" + keyword + "'");
    }
    if (*type == ResourceType::kNode) {
      throw ParseError("synthetic description must not include 'node'");
    }
    const std::size_t count =
        parse_size(token.substr(colon + 1), "synthetic level count");
    if (count == 0) {
      throw ParseError("synthetic level count must be positive: '" + token +
                       "'");
    }
    if (canonical_depth(*type) <= last_depth) {
      throw ParseError(
          "synthetic levels must follow canonical containment order "
          "(board > socket > numa > l3 > l2 > l1 > core > pu): '" +
          token + "'");
    }
    last_depth = canonical_depth(*type);
    spec.emplace_back(*type, count);
  }
  if (spec.empty()) {
    throw ParseError("empty synthetic description");
  }
  const ResourceType leaf = spec.back().first;
  if (leaf != ResourceType::kCore && leaf != ResourceType::kHwThread) {
    throw ParseError(
        "synthetic description must end with a processing level (core or "
        "pu)");
  }

  NodeTopology topo;
  topo.name_ = std::move(name);
  topo.root_ = std::make_unique<TopoObject>(ResourceType::kNode, 0);

  // Expand the uniform tree; os indices count objects per level.
  std::vector<int> next_os(spec.size(), 0);
  std::function<void(TopoObject&, std::size_t)> expand =
      [&](TopoObject& parent, std::size_t depth) {
        if (depth == spec.size()) return;
        for (std::size_t i = 0; i < spec[depth].second; ++i) {
          TopoObject& child = parent.add_child(std::make_unique<TopoObject>(
              spec[depth].first, next_os[depth]++));
          expand(child, depth + 1);
        }
      };
  expand(*topo.root_, 0);
  topo.finalize();
  return topo;
}

void NodeTopology::finalize() {
  LAMA_ASSERT(root_ != nullptr);
  levels_.clear();
  leaves_.clear();

  // Collect present levels (set of types) and leaves in DFS order.
  bool present[kNumResourceTypes] = {};
  std::vector<int> next_level_index(kNumResourceTypes, 0);
  std::function<void(TopoObject&)> walk = [&](TopoObject& obj) {
    present[canonical_depth(obj.type())] = true;
    obj.set_level_index(next_level_index[canonical_depth(obj.type())]++);
    if (obj.is_leaf()) {
      const std::size_t pu_index = leaves_.size();
      leaves_.push_back(&obj);
      obj.set_cpuset(Bitmap::single(pu_index));
      return;
    }
    Bitmap span;
    for (std::size_t i = 0; i < obj.num_children(); ++i) {
      walk(obj.mutable_child(i));
      span |= obj.child(i).cpuset();
    }
    obj.set_cpuset(std::move(span));
  };
  walk(*root_);

  for (ResourceType t : all_resource_types()) {
    if (present[canonical_depth(t)]) levels_.push_back(t);
  }
  LAMA_ASSERT(!leaves_.empty());
  // All leaves must share one type (the smallest processing unit).
  for (const TopoObject* leaf : leaves_) {
    if (leaf->type() != leaves_.front()->type()) {
      throw ParseError("topology leaves must all be the same resource type");
    }
  }
  if (levels_.back() != leaves_.front()->type()) {
    throw ParseError("leaf type must be the deepest level in the tree");
  }
}

bool NodeTopology::has_level(ResourceType t) const {
  for (ResourceType level : levels_) {
    if (level == t) return true;
  }
  return false;
}

std::vector<const TopoObject*> NodeTopology::objects_at(ResourceType t) const {
  std::vector<const TopoObject*> out;
  std::function<void(const TopoObject&)> walk = [&](const TopoObject& obj) {
    if (obj.type() == t) {
      out.push_back(&obj);
      return;  // a type never nests inside itself
    }
    for (std::size_t i = 0; i < obj.num_children(); ++i) walk(obj.child(i));
  };
  walk(*root_);
  return out;
}

std::size_t NodeTopology::count(ResourceType t) const {
  return objects_at(t).size();
}

std::size_t NodeTopology::pu_count() const { return leaves_.size(); }

Bitmap NodeTopology::online_pus() const {
  Bitmap online;
  std::function<void(const TopoObject&)> walk = [&](const TopoObject& obj) {
    if (obj.disabled()) return;
    if (obj.is_leaf()) {
      online |= obj.cpuset();
      return;
    }
    for (std::size_t i = 0; i < obj.num_children(); ++i) walk(obj.child(i));
  };
  walk(*root_);
  return online;
}

bool NodeTopology::has_online_pu() const { return any_online_leaf(*root_); }

const TopoObject& NodeTopology::pu(std::size_t index) const {
  LAMA_ASSERT(index < leaves_.size());
  return *leaves_[index];
}

const TopoObject* NodeTopology::ancestor_of_pu(std::size_t pu_index,
                                               ResourceType t) const {
  return pu(pu_index).ancestor(t);
}

void NodeTopology::set_object_disabled(ResourceType t, std::size_t level_index,
                                       bool disabled) {
  std::function<TopoObject*(TopoObject&)> find = [&](TopoObject& obj)
      -> TopoObject* {
    if (obj.type() == t) {
      return obj.level_index() == static_cast<int>(level_index) ? &obj
                                                                : nullptr;
    }
    for (std::size_t i = 0; i < obj.num_children(); ++i) {
      if (TopoObject* hit = find(obj.mutable_child(i))) return hit;
    }
    return nullptr;
  };
  TopoObject* obj = find(*root_);
  if (obj == nullptr) {
    throw MappingError("no " + std::string(resource_name(t)) + " with index " +
                       std::to_string(level_index) + " on " + name_);
  }
  obj->set_disabled(disabled);
}

void NodeTopology::restrict_pus(const Bitmap& allowed) {
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    if (!allowed.test(i)) leaves_[i]->set_disabled(true);
  }
}

void NodeTopology::clear_restrictions() {
  std::function<void(TopoObject&)> walk = [&](TopoObject& obj) {
    obj.set_disabled(false);
    for (std::size_t i = 0; i < obj.num_children(); ++i) {
      walk(obj.mutable_child(i));
    }
  };
  walk(*root_);
}

std::string NodeTopology::shape_string() const {
  std::string out = name_ + "(";
  bool first = true;
  for (ResourceType t : levels_) {
    if (t == ResourceType::kNode) continue;
    if (!first) out += " x ";
    first = false;
    out += std::to_string(count(t)) + " " + std::string(resource_keyword(t));
  }
  return out + ")";
}

std::string NodeTopology::render() const {
  std::string out;
  std::function<void(const TopoObject&, int)> walk = [&](const TopoObject& obj,
                                                         int indent) {
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
    if (obj.type() == ResourceType::kNode) {
      out += name_;
    } else {
      out += resource_name(obj.type());
      out += " L#" + std::to_string(obj.level_index());
    }
    out += " (pus " + obj.cpuset().to_string() + ")";
    if (obj.disabled()) out += " [offline]";
    out += "\n";
    for (std::size_t i = 0; i < obj.num_children(); ++i) {
      walk(obj.child(i), indent + 1);
    }
  };
  walk(*root_, 0);
  return out;
}

NodeTopology::Builder::Builder(std::string name) : name_(std::move(name)) {
  root_ = std::make_unique<TopoObject>(ResourceType::kNode, 0);
  stack_.push_back(root_.get());
}

NodeTopology::Builder& NodeTopology::Builder::begin(ResourceType t,
                                                    int os_index) {
  LAMA_ASSERT(!stack_.empty());
  TopoObject* parent = stack_.back();
  if (canonical_depth(t) <= canonical_depth(parent->type())) {
    throw ParseError("builder level " + std::string(resource_name(t)) +
                     " does not nest inside " +
                     std::string(resource_name(parent->type())));
  }
  const int os = os_index >= 0 ? os_index
                               : static_cast<int>(parent->num_children());
  TopoObject& child = parent->add_child(std::make_unique<TopoObject>(t, os));
  stack_.push_back(&child);
  return *this;
}

NodeTopology::Builder& NodeTopology::Builder::end() {
  LAMA_ASSERT(stack_.size() > 1);
  stack_.pop_back();
  return *this;
}

NodeTopology::Builder& NodeTopology::Builder::leaf(ResourceType t,
                                                   int os_index) {
  return begin(t, os_index).end();
}

NodeTopology::Builder& NodeTopology::Builder::disable() {
  LAMA_ASSERT(!stack_.empty());
  stack_.back()->set_disabled(true);
  return *this;
}

NodeTopology NodeTopology::Builder::build() {
  LAMA_ASSERT(stack_.size() == 1);
  NodeTopology topo;
  topo.name_ = std::move(name_);
  topo.root_ = std::move(root_);
  topo.finalize();
  return topo;
}

}  // namespace lama
