#include "lama/remap.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace lama {

namespace {

// True when the rank's placement is still fully usable on the reduced
// allocation, whose per-node online sets are `online`: its node exists and
// every one of its target PUs is online.
bool placement_survives(const Placement& p, const std::vector<Bitmap>& online) {
  if (p.node >= online.size()) return false;
  if (p.target_pus.empty()) return false;
  return p.target_pus.is_subset_of(online[p.node]);
}

// True when some PU on some node is targeted by more than one placement.
bool any_pu_shared(const MappingResult& mapping, std::size_t num_nodes) {
  std::vector<Bitmap> used(num_nodes);
  for (const Placement& p : mapping.placements) {
    if (p.target_pus.intersects(used[p.node])) return true;
    used[p.node] |= p.target_pus;
  }
  return false;
}

}  // namespace

RemapResult lama_remap(const Allocation& reduced, const ProcessLayout& layout,
                       const MapOptions& opts, const MappingResult& previous) {
  if (opts.np != previous.placements.size()) {
    throw MappingError("remap expects opts.np (" + std::to_string(opts.np) +
                       ") to equal the previous mapping's process count (" +
                       std::to_string(previous.placements.size()) + ")");
  }
  if (reduced.num_nodes() != previous.procs_per_node.size()) {
    throw MappingError(
        "remap expects the reduced allocation to keep the previous node "
        "list (apply failures as topology restrictions, not node removal)");
  }
  reduced.validate();

  // Each node's online set, walked once: survival checks and the survivor
  // restriction below both read it.
  std::vector<Bitmap> online(reduced.num_nodes());
  for (std::size_t i = 0; i < online.size(); ++i) {
    online[i] = reduced.node(i).topo.online_pus();
  }

  RemapResult result;
  result.mapping.layout = layout.to_string();
  result.mapping.placements = previous.placements;
  for (std::size_t r = 0; r < previous.placements.size(); ++r) {
    if (!placement_survives(previous.placements[r], online)) {
      result.displaced.push_back(static_cast<int>(r));
    }
  }
  result.surviving = previous.placements.size() - result.displaced.size();

  if (result.displaced.empty()) {
    // Nothing moved: the previous plan is still fully valid.
    result.mapping = previous;
    result.mapping.layout = layout.to_string();
    return result;
  }

  // Off-line the survivors' PUs on top of the reduced allocation, so the
  // recursive mapper's availability skipping steps past failures and
  // survivors alike and only ever lands displaced ranks on free resources.
  std::vector<Bitmap> allowed = online;
  for (const Placement& p : previous.placements) {
    if (placement_survives(p, online)) allowed[p.node].and_not(p.target_pus);
  }
  Allocation restricted = reduced;
  for (std::size_t i = 0; i < restricted.num_nodes(); ++i) {
    restricted.mutable_node(i).topo.restrict_pus(allowed[i]);
  }

  const Allocation* submap_alloc = &restricted;
  if (!restricted.has_online_pu()) {
    // Survivors hold every remaining PU. Either share (wrap around the
    // reduced allocation) or refuse, per the oversubscription policy.
    if (!opts.allow_oversubscribe) {
      throw OversubscribeError(
          "remap cannot place " + std::to_string(result.displaced.size()) +
          " displaced processes: surviving processes occupy every online "
          "processing unit and oversubscription is disallowed");
    }
    submap_alloc = &reduced;
    result.degraded_shared = true;
  }

  MapOptions sub = opts;
  sub.np = result.displaced.size();
  const MappingResult fresh = lama_map(*submap_alloc, layout, sub);

  for (std::size_t i = 0; i < result.displaced.size(); ++i) {
    Placement p = fresh.placements[i];
    p.rank = result.displaced[i];
    result.mapping.placements[static_cast<std::size_t>(result.displaced[i])] =
        std::move(p);
  }

  result.mapping.sweeps = fresh.sweeps;
  result.mapping.skipped = fresh.skipped;
  result.mapping.visited = fresh.visited;
  result.mapping.procs_per_node.assign(reduced.num_nodes(), 0);
  for (const Placement& p : result.mapping.placements) {
    ++result.mapping.procs_per_node[p.node];
  }
  result.mapping.pu_oversubscribed =
      any_pu_shared(result.mapping, reduced.num_nodes());
  for (std::size_t i = 0; i < reduced.num_nodes(); ++i) {
    if (result.mapping.procs_per_node[i] > reduced.node(i).slots) {
      result.mapping.slot_oversubscribed = true;
      break;
    }
  }
  return result;
}

}  // namespace lama
