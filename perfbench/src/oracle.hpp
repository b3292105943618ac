// An independent placement oracle: the paper's Figure 1 nested iteration
// written from scratch over the benchmark's regular shape descriptions.
// Pruning and bridging reduce to arithmetic on a regular tree (a kept level's
// fan-out is the product of the hardware fan-outs it absorbs; a level the
// hardware lacks is one pass-through vertex), and a coordinate is skipped
// when it does not exist on the targeted node or holds no on-line leaf. It
// shares no code with the program under test.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "shapes.hpp"

namespace pb {

struct Answer {
  bool ok = false;  // false when a whole sweep placed nothing
  std::size_t sweeps = 0;
  std::vector<int> nodes;   // per rank
  std::vector<int> pus;     // per rank: lowest on-line leaf of its target
  std::vector<int> widths;  // per rank, bind=core only: on-line PUs of the core
};

Answer oracle_map(const Cluster& cluster, const Layout& layout,
                  std::size_t np, bool bind_core);

// The exact text the server answers for a successful MAP.
std::string expected_map_response(const Answer& answer, bool hit,
                                  bool bind_core);

// Checks the oracle against the paper's Figure 2 table (two nodes of two
// sockets x four cores x two hardware threads, layout scbnh, np = 24).
bool oracle_matches_fig2(std::string& why);

}  // namespace pb
