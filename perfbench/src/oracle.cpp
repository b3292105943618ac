#include "oracle.hpp"

#include <algorithm>

namespace pb {

namespace {

// One node's pruned tree for one layout, as arithmetic: a vertex at kept
// coordinate k covers leaves [sum k_j * mult_j, + span).
struct NodeView {
  std::vector<int> width;  // per kept level
  std::vector<int> mult;   // per kept level: leaf stride, 0 for a bridge
  int span = 0;
  std::vector<int> next_online;  // first on-line leaf >= i, or -1
};

NodeView view_of(const NodeDesc& node, const std::vector<int>& kept) {
  const Shape& s = *node.shape;
  NodeView v;
  int above = kNode;  // deepest kept level the hardware has, so far
  for (int level : kept) {
    if (s.count[level] == 0) {
      v.width.push_back(1);
      v.mult.push_back(0);
      continue;
    }
    int fan = 1;
    for (int l = above + 1; l <= level; ++l) {
      if (s.count[l] > 0) fan *= s.count[l];
    }
    v.width.push_back(fan);
    v.mult.push_back(s.stride(level));
    above = level;
  }
  v.span = above == kNode ? s.leaves() : s.stride(above);
  v.next_online.assign(static_cast<std::size_t>(s.leaves()) + 1, -1);
  for (int i = s.leaves() - 1; i >= 0; --i) {
    v.next_online[i] = node.online(i) ? i : v.next_online[i + 1];
  }
  return v;
}

std::string csv(const std::vector<int>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

}  // namespace

Answer oracle_map(const Cluster& cluster, const Layout& layout,
                  std::size_t np, bool bind_core) {
  Answer answer;
  std::vector<int> kept;  // containment order
  for (int level = kBoard; level < kLevels; ++level) {
    if (std::find(layout.begin(), layout.end(), level) != layout.end()) {
      kept.push_back(level);
    }
  }
  std::vector<NodeView> views;
  views.reserve(cluster.size());
  std::vector<int> maxw(kept.size(), 0);
  for (const NodeDesc& node : cluster) {
    views.push_back(view_of(node, kept));
    for (std::size_t j = 0; j < kept.size(); ++j) {
      maxw[j] = std::max(maxw[j], views.back().width[j]);
    }
  }

  // Loop extents by layout position (position 0 is the innermost loop) and,
  // for each kept level, the position that drives it.
  const std::size_t depth = layout.size();
  std::vector<int> extent(depth);
  std::vector<std::size_t> pos_of_kept(kept.size());
  int node_pos = -1;
  for (std::size_t p = 0; p < depth; ++p) {
    if (layout[p] == kNode) {
      node_pos = static_cast<int>(p);
      extent[p] = static_cast<int>(cluster.size());
      continue;
    }
    const std::size_t j = static_cast<std::size_t>(
        std::find(kept.begin(), kept.end(), layout[p]) - kept.begin());
    pos_of_kept[j] = p;
    extent[p] = maxw[j];
  }

  std::vector<int> coord(depth, 0);
  while (answer.nodes.size() < np) {
    const std::size_t before = answer.nodes.size();
    ++answer.sweeps;
    std::fill(coord.begin(), coord.end(), 0);
    bool wrapped = false;
    while (!wrapped && answer.nodes.size() < np) {
      const int node = node_pos >= 0 ? coord[node_pos] : 0;
      const NodeView& v = views[static_cast<std::size_t>(node)];
      bool exists = true;
      int base = 0;
      for (std::size_t j = 0; j < kept.size() && exists; ++j) {
        const int k = coord[pos_of_kept[j]];
        exists = k < v.width[j];
        base += k * v.mult[j];
      }
      if (exists) {
        const int first = v.next_online[base];
        if (first >= 0 && first < base + v.span) {
          answer.nodes.push_back(node);
          answer.pus.push_back(first);
        }
      }
      // Odometer step, innermost position first.
      std::size_t p = 0;
      while (p < depth && ++coord[p] == extent[p]) coord[p++] = 0;
      wrapped = p == depth;
    }
    if (answer.nodes.size() == before) return answer;
  }

  if (bind_core) {
    for (std::size_t r = 0; r < answer.nodes.size(); ++r) {
      const NodeDesc& node = cluster[static_cast<std::size_t>(answer.nodes[r])];
      const int stride = node.shape->stride(kCore);
      const int core = answer.pus[r] / stride;
      int width = 0;
      for (int leaf = core * stride; leaf < (core + 1) * stride; ++leaf) {
        width += node.online(leaf) ? 1 : 0;
      }
      answer.widths.push_back(width);
    }
  }
  answer.ok = true;
  return answer;
}

std::string expected_map_response(const Answer& answer, bool hit,
                                  bool bind_core) {
  std::string out = "OK hit=" + std::string(hit ? "1" : "0") +
                    " coalesced=0 np=" + std::to_string(answer.nodes.size()) +
                    " sweeps=" + std::to_string(answer.sweeps) +
                    " nodes=" + csv(answer.nodes) + " pus=" + csv(answer.pus);
  if (bind_core) out += " widths=" + csv(answer.widths);
  return out;
}

bool oracle_matches_fig2(std::string& why) {
  static const Shape kFig2{"fig2", {{0, 0, 2, 0, 0, 0, 0, 4, 2}}};
  Cluster cluster(2);
  for (NodeDesc& node : cluster) {
    node.shape = &kFig2;
    node.leaf_offline.assign(16, false);
  }
  // Figure 2: ranks 0-7 fill node 0 socket-first over the first hardware
  // thread of each core, ranks 8-15 node 1, ranks 16-23 the second threads
  // of node 0.
  const std::vector<int> first = {0, 8, 2, 10, 4, 12, 6, 14};
  const std::vector<int> second = {1, 9, 3, 11, 5, 13, 7, 15};
  std::vector<int> nodes, pus;
  for (int block = 0; block < 3; ++block) {
    for (int i = 0; i < 8; ++i) {
      nodes.push_back(block == 1 ? 1 : 0);
      pus.push_back(block == 2 ? second[i] : first[i]);
    }
  }
  const Answer a =
      oracle_map(cluster, {kSocket, kCore, kBoard, kNode, kPu}, 24, false);
  if (!a.ok || a.sweeps != 1 || a.nodes != nodes || a.pus != pus) {
    why = "oracle disagrees with Figure 2: nodes=" + csv(a.nodes) +
          " pus=" + csv(a.pus);
    return false;
  }
  return true;
}

}  // namespace pb
