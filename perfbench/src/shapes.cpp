#include "shapes.hpp"

#include <algorithm>

namespace pb {

namespace {

const char* const kLetters[kLevels] = {"n",  "b",  "s", "N", "L3",
                                       "L2", "L1", "c", "h"};
const char* const kNames[kLevels] = {"node", "board", "socket", "numa", "l3",
                                     "l2",   "l1",    "core",   "pu"};

// Appends the subtree of one object at `level` (already opened by the
// caller) and advances the per-level index counters in depth-first order.
void emit_children(const NodeDesc& node, int level,
                   std::array<int, kLevels>& next, std::string& out) {
  const Shape& s = *node.shape;
  int child = level + 1;
  while (child < kLevels && s.count[child] == 0) ++child;
  if (child == kLevels) return;
  for (int i = 0; i < s.count[child]; ++i) {
    const int index = next[child]++;
    out += " (";
    out += kNames[child];
    out += '@';
    out += std::to_string(index);
    if (child == s.leaf_level() && node.leaf_offline[index]) out += '!';
    emit_children(node, child, next, out);
    out += ')';
  }
}

}  // namespace

const char* level_letter(int level) { return kLetters[level]; }

int Shape::leaves() const {
  int n = 1;
  for (int l = kBoard; l < kLevels; ++l) {
    if (count[l] > 0) n *= count[l];
  }
  return n;
}

int Shape::leaf_level() const {
  int leaf = kNode;
  for (int l = kBoard; l < kLevels; ++l) {
    if (count[l] > 0) leaf = l;
  }
  return leaf;
}

int Shape::stride(int level) const {
  int n = 1;
  for (int l = level + 1; l < kLevels; ++l) {
    if (count[l] > 0) n *= count[l];
  }
  return n;
}

//                           n  b  s  N  L3 L2 L1 c  h
const Shape kFat{"fat", {{0, 1, 2, 2, 1, 4, 1, 1, 2}}};
const Shape kFlat{"flat", {{0, 0, 2, 0, 0, 0, 0, 8, 2}}};
const Shape kThin{"thin", {{0, 0, 1, 1, 1, 8, 1, 1, 0}}};

Cluster make_cluster(std::mt19937_64& rng, int fat, int flat, int thin,
                     int thin_offline) {
  // Shapes are spread evenly (smooth weighted round robin) rather than
  // shuffled: which shape sits where decides how many nodes a packed layout
  // touches, so a seeded order would make the cost of a run depend on its
  // seed. The seed places the off-line cores.
  const std::array<std::pair<const Shape*, int>, 3> shapes = {
      {{&kFat, fat}, {&kFlat, flat}, {&kThin, thin}}};
  const int total = fat + flat + thin;
  std::array<int, 3> credit{};
  Cluster cluster;
  for (int i = 0; i < total; ++i) {
    std::size_t best = 0;
    for (std::size_t k = 0; k < shapes.size(); ++k) {
      credit[k] += shapes[k].second;
      if (credit[k] > credit[best]) best = k;
    }
    credit[best] -= total;
    NodeDesc node;
    node.shape = shapes[best].first;
    node.leaf_offline.assign(static_cast<std::size_t>(node.shape->leaves()), false);
    if (node.shape == &kThin) {
      std::vector<int> cores(node.leaf_offline.size());
      for (std::size_t c = 0; c < cores.size(); ++c) cores[c] = static_cast<int>(c);
      std::shuffle(cores.begin(), cores.end(), rng);
      for (int k = 0; k < thin_offline; ++k) node.leaf_offline[cores[k]] = true;
    }
    cluster.push_back(std::move(node));
  }
  return cluster;
}

std::string sexpr(const NodeDesc& node) {
  std::array<int, kLevels> next{};
  std::string out = node.offline ? "(node@0!" : "(node@0";
  emit_children(node, kNode, next, out);
  out += ')';
  return out;
}

std::vector<std::string> node_lines(const Cluster& cluster,
                                    const std::string& id) {
  std::vector<std::string> lines;
  lines.reserve(cluster.size());
  for (const NodeDesc& node : cluster) {
    lines.push_back("NODE " + id + " " +
                    std::to_string(node.shape->leaves()) + " " + sexpr(node));
  }
  return lines;
}

std::string layout_string(const Layout& layout) {
  std::string out;
  for (int level : layout) out += kLetters[level];
  return out;
}

}  // namespace pb
