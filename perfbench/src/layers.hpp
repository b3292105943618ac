// The traced run's per-layer figures. Every figure is timed from the
// benchmark's side, around calls into one layer's public functions, on the
// workload's own allocations, keys and protocol lines; the program carries
// no tracing of its own for this.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace pb {

// What the socket phase of the traced run measured, and where its server,
// still up, can be reached for the transport probe.
struct SocketPhase {
  int port = 0;
  int server_cpu = -1;                    // -1: not pinned
  std::vector<int> client_cpus;
  std::vector<std::uint64_t> connect_ns;  // fresh connections
  std::uint64_t bytes = 0;                // client bytes in + out
  std::map<std::string, double> stats_delta;  // STATS keys, after - before
};

struct LayerMetric {
  double value = 0;
  const char* unit = "";
};

// The bind=core property, which the wire's widths= cannot show: every
// rank's cpuset contains the PU it was mapped to. Checked in-process for
// every bind=core key of the workload; explains a failure in `why`.
bool bindings_contain_mapped_pus(const Workload& w, std::string& why);

// Runs the in-process replays and layer timings; `scratch` is a directory
// the durability timings may use. The server must be idle and in the state
// the workload's set-up and operations left it in.
std::map<std::string, LayerMetric> trace_layers(const Workload& w,
                                                const SocketPhase& socket,
                                                const std::string& scratch);

}  // namespace pb
