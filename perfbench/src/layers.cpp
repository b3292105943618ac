#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sstream>

#include "cluster/alloc_serialize.hpp"
#include "dur/state_store.hpp"
#include "lama/binding.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"
#include "lama/remap.hpp"
#include "net.hpp"
#include "support/crc32.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "topo/serialize.hpp"

namespace pb {

namespace {

// Per-timing cap on samples, so the traced run stays well inside its limit.
constexpr std::size_t kMaxPairs = 16;
constexpr std::size_t kMaxRecords = 256;
constexpr std::size_t kMaxFrames = 4096;
constexpr std::size_t kProbeOps = 64;

double us_since(std::uint64_t start) { return static_cast<double>(now_ns() - start) / 1e3; }

double med(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

std::vector<std::string> tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string t;
  while (in >> t) out.push_back(t);
  return out;
}

lama::Allocation build_alloc(const Cluster& cluster) {
  lama::Allocation alloc;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    alloc.add(lama::AllocatedNode{i, lama::parse_topology(sexpr(cluster[i])),
                                  static_cast<std::size_t>(cluster[i].shape->leaves())});
  }
  return alloc;
}

// The server's configuration for this workload (only --capacity varies).
lama::svc::ServiceConfig config_for(const Workload& w) {
  lama::svc::ServiceConfig config;
  for (std::size_t i = 0; i + 1 < w.server_args.size(); ++i) {
    if (w.server_args[i] == "--capacity") config.shard_capacity = std::stoul(w.server_args[i + 1]);
  }
  return config;
}

// ---------------------------------------------------------------------------
// The protocol layer: the workload's set-up and operations replayed through
// one in-process ProtocolSession. The operations run in chunks of whole
// rounds, every other chunk with a timer around each execute(). Timed and
// untimed chunks hold the same kinds of work and see the same stretches of
// the host's speed, so their walls per operation give the tracing overhead.
struct ProtocolReplay {
  double plain_s = 0, timed_s = 0;                  // walls of the operations
  std::size_t plain_ops = 0, timed_ops = 0;
  std::vector<double> node_us;                      // set-up NODE lines
  std::map<std::string, std::vector<double>> verb;  // per timed op line
  std::vector<double> map_us;                       // per timed op, its MAP
  std::string answers;                              // MAP answers, for CRC
  std::uint64_t dur_records = 0, dur_bytes = 0;     // during the operations
};

constexpr std::size_t kReplayChunks = 16;

// `after`, if set, runs on the session once the operations are replayed.
ProtocolReplay replay_protocol(
    const Workload& w, const std::string& dir,
    const std::function<void(lama::svc::ProtocolSession&)>& after) {
  ProtocolReplay r;
  lama::svc::MappingService service(config_for(w));
  lama::svc::ProtocolSession session(service);
  std::unique_ptr<lama::dur::StateStore> store;
  if (w.durable) {
    std::filesystem::remove_all(dir);
    lama::dur::DurConfig config;
    config.dir = dir;
    store = std::make_unique<lama::dur::StateStore>(config);
    service.attach_durability(store.get());
    session.restore_from(*store);
  }
  std::istringstream none;
  std::vector<std::string> setup = node_lines(w.allocs[0].second, w.allocs[0].first);
  for (const auto& [line, expected] : w.prime) setup.push_back(line);
  for (const std::string& line : setup) {
    const std::uint64_t t = now_ns();
    session.execute(line, none);
    if (line.rfind("NODE ", 0) == 0) r.node_us.push_back(us_since(t));
  }
  std::vector<std::vector<std::string>> texts(w.ops.size());
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    for (const Line& line : w.ops[i].lines) {
      for (std::string& text : split_lines(line.command)) texts[i].push_back(std::move(text));
    }
  }
  const auto journal = [&] {
    return store ? store->stats().journal : lama::dur::JournalStats{};
  };
  const lama::dur::JournalStats j0 = journal();
  r.map_us.assign(w.ops.size(), 0);
  const std::size_t n = w.ops.size();
  const std::size_t rounds = n / w.round_ops;
  const std::size_t chunk = w.round_ops * std::max<std::size_t>(1, rounds / kReplayChunks);
  for (std::size_t begin = 0, c = 0; begin < n; begin += chunk, ++c) {
    const std::size_t end = std::min(n, begin + chunk);
    const std::uint64_t start = now_ns();
    if (c % 2 == 0) {
      for (std::size_t i = begin; i < end; ++i) {
        for (const std::string& text : texts[i]) session.execute(text, none);
      }
      r.plain_s += static_cast<double>(now_ns() - start) / 1e9;
      r.plain_ops += end - begin;
      continue;
    }
    for (std::size_t i = begin; i < end; ++i) {
      for (const std::string& text : texts[i]) {
        const std::uint64_t t = now_ns();
        const std::string answer = session.execute(text, none);
        const double us = us_since(t);
        const std::string verb = text.substr(0, text.find(' '));
        r.verb[verb].push_back(us);
        if (verb == "MAP") {
          r.map_us[i] = us;
          if (r.answers.size() < (4u << 20)) r.answers += answer;
        }
      }
    }
    r.timed_s += static_cast<double>(now_ns() - start) / 1e9;
    r.timed_ops += end - begin;
  }
  const lama::dur::JournalStats j1 = journal();
  r.dur_records = j1.appended - j0.appended;
  r.dur_bytes = j1.bytes - j0.bytes;
  if (after) after(session);
  return r;
}

// ---------------------------------------------------------------------------
// The service layer: the same operations against MappingService directly,
// mirroring what the protocol session does for each verb.
struct ServiceReplay {
  std::vector<double> hit_us, miss_us, intern_us, invalidate_us, format_us;
  std::vector<double> map_us;  // per op, its MAP
};

ServiceReplay replay_service(const Workload& w) {
  namespace svc = lama::svc;
  ServiceReplay r;
  svc::MappingService service(config_for(w));
  std::map<std::string, lama::Allocation> current;
  std::map<std::string, svc::InternedAlloc> handle;
  std::map<std::string, std::pair<svc::MapRequest, lama::MappingResult>> last;
  const auto intern = [&](const std::string& id) {
    const std::uint64_t t = now_ns();
    handle[id] = service.intern(current[id]);
    r.intern_us.push_back(us_since(t));
  };
  // Like the session: an availability change or NODE invalidates at once
  // and re-interns lazily, at the next MAP or REMAP (whose time it joins).
  std::set<std::string> dirty;
  const auto bump = [&](const std::string& id) {
    const std::uint64_t t = now_ns();
    service.invalidate(handle[id].fingerprint);
    r.invalidate_us.push_back(us_since(t));
    dirty.insert(id);
  };
  const auto fresh = [&](const std::string& id) {
    const std::uint64_t t = now_ns();
    if (dirty.erase(id) > 0) intern(id);
    return us_since(t);
  };
  for (const auto& [id, cluster] : w.allocs) {
    current[id] = build_alloc(cluster);
  }
  // The stateless queries' allocation starts empty: each query's NODE line
  // appends to it, as the session does.
  for (const Op& op : w.ops) {
    if (op.fresh) current[w.allocs.back().first] = lama::Allocation{};
  }
  for (auto& [id, alloc] : current) {
    if (alloc.num_nodes() > 0) intern(id);
  }

  const auto run = [&](const std::string& text, std::size_t op, bool timed) {
    const std::vector<std::string> t = tokens(text);
    if (t[0] == "MAP") {
      const double intern_us = fresh(t[1]);
      svc::MapRequest req;
      req.alloc = handle[t[1]];
      req.spec = t[3];
      req.opts.np = std::stoul(t[2]);
      if (t.size() > 4) req.binding = lama::BindingPolicy{lama::BindTarget::kCore};
      const std::uint64_t start = now_ns();
      const svc::MapResponse resp = service.map(req);
      const double us = us_since(start);
      last[t[1]] = {req, resp.mapping};
      if (!timed) return;
      (resp.cache_hit ? r.hit_us : r.miss_us).push_back(us);
      r.map_us[op] = intern_us + us;
      const std::uint64_t f = now_ns();
      const std::string line = svc::format_map_response(resp);
      r.format_us.push_back(us_since(f));
    } else if (t[0] == "OFFLINE" || t[0] == "ONLINE") {
      current[t[1]].mutable_node(std::stoul(t[2])).topo.set_object_disabled(
          lama::ResourceType::kNode, 0, t[0] == "OFFLINE");
      bump(t[1]);
    } else if (t[0] == "REMAP") {
      fresh(t[1]);
      auto& [req, mapping] = last[t[1]];
      svc::RemapRequest remap;
      remap.alloc = handle[t[1]];
      remap.layout = lama::ProcessLayout::parse(req.spec.substr(req.spec.find(':') + 1));
      remap.opts = req.opts;
      remap.previous = &mapping;
      mapping = service.remap(remap).mapping;
    } else if (t[0] == "NODE") {
      const std::size_t at = text.find('(');
      lama::Allocation& alloc = current[t[1]];
      alloc.add(lama::AllocatedNode{alloc.num_nodes(), lama::parse_topology(text.substr(at)),
                                    std::stoul(t[2])});
      if (handle[t[1]].valid()) {
        bump(t[1]);
      } else {
        dirty.insert(t[1]);
      }
    }
  };
  for (const auto& [line, expected] : w.prime) {
    if (line.rfind("MAP ", 0) == 0) run(line, 0, false);
  }
  r.map_us.assign(w.ops.size(), 0);
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    for (const Line& line : w.ops[i].lines) {
      for (const std::string& text : split_lines(line.command)) run(text, i, true);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// The lama, cluster/topo, durability and wire layers, each timed on the
// workload's own inputs.
struct LamaTimes {
  std::vector<double> tree_ns_per_node, compile_us, compiled_ns_per_rank,
      reference_ns_per_rank, bind_ns_per_rank, remap_us;
};

LamaTimes time_lama(const Workload& w, const std::vector<lama::Allocation>& allocs) {
  LamaTimes r;
  std::map<std::pair<int, std::string>, std::vector<const Key*>> pairs;
  for (const Key& key : w.keys) {
    if (pairs.size() < kMaxPairs || pairs.count({key.alloc, layout_string(key.layout)})) {
      pairs[{key.alloc, layout_string(key.layout)}].push_back(&key);
    }
  }
  for (const auto& [pair, keys] : pairs) {
    const lama::Allocation& alloc = allocs[static_cast<std::size_t>(pair.first)];
    if (alloc.num_nodes() == 0) continue;
    const lama::ProcessLayout layout = lama::ProcessLayout::parse(pair.second);
    std::uint64_t t = now_ns();
    const lama::MaximalTree tree(alloc, layout);
    r.tree_ns_per_node.push_back(us_since(t) * 1e3 / static_cast<double>(alloc.num_nodes()));
    t = now_ns();
    const lama::MapPlan plan = lama::compile_map_plan(tree, layout, lama::IterationPolicy{});
    r.compile_us.push_back(us_since(t));
    lama::PlanExecutor exec;
    lama::MappingResult out;
    for (const Key* key : keys) {
      lama::MapOptions opts;
      opts.np = key->np;
      const double np = static_cast<double>(key->np);
      for (int rep = 0; rep < 3; ++rep) {
        t = now_ns();
        lama::lama_map_compiled(alloc, opts, plan, exec, out);
        r.compiled_ns_per_rank.push_back(us_since(t) * 1e3 / np);
      }
      t = now_ns();
      const lama::MappingResult mapping = lama::lama_map(alloc, layout, opts, tree);
      r.reference_ns_per_rank.push_back(us_since(t) * 1e3 / np);
      t = now_ns();
      const lama::BindingResult bound =
          lama::bind_processes(alloc, mapping, lama::BindingPolicy{lama::BindTarget::kCore});
      r.bind_ns_per_rank.push_back(us_since(t) * 1e3 / np);
      // Rank 0's node fails; on a one-node allocation, its PU.
      lama::Allocation reduced = alloc;
      lama::NodeTopology& topo = reduced.mutable_node(mapping.placements[0].node).topo;
      if (alloc.num_nodes() > 1) {
        topo.set_object_disabled(lama::ResourceType::kNode, 0, true);
      } else {
        topo.set_object_disabled(topo.leaf_type(), mapping.placements[0].representative_pu(), true);
      }
      t = now_ns();
      const lama::RemapResult remapped = lama::lama_remap(reduced, layout, opts, mapping);
      r.remap_us.push_back(us_since(t));
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// The transport's self time, from one phase: on one otherwise idle
// connection, the MAP line of a sample of the workload's operations goes to
// the server and, right after, to an in-process session in the same state
// (the workload's set-up and operations replayed), on the server's CPU.
// Each line is sent three times and the third is measured: both sides then
// answer from the cache, and neither still pays for a miss just before (the
// first hit after a cold build runs slower on both). When the two answers
// agree, round trip minus execute() is one sample.
std::vector<double> probe_transport(const Workload& w, const SocketPhase& socket,
                                    lama::svc::ProtocolSession& session) {
  namespace svc = lama::svc;
  std::vector<double> self_us;
  Conn conns[2];  // text, binary
  std::istringstream none;
  const std::size_t n = w.ops.size();
  for (std::size_t j = 0; j < std::min(n, kProbeOps); ++j) {
    const Op& op = w.ops[j * n / std::min(n, kProbeOps)];
    std::string map;
    for (const Line& line : op.lines) {
      for (const std::string& text : split_lines(line.command)) {
        if (text.rfind("MAP ", 0) == 0) map = text;
      }
    }
    if (map.empty()) continue;
    const bool binary = !op.fresh && !w.binary.empty() &&
                        w.binary[static_cast<std::size_t>(op.conn)];
    Conn& conn = conns[binary ? 1 : 0];
    if (!conn.is_open()) conn.open(socket.port, binary);
    const std::string request =
        binary ? svc::encode_frame(svc::WireVerb::kMap, map) : map + "\n";
    for (int rep = 0; rep < 3; ++rep) {
      pin_to(socket.client_cpus);
      std::uint64_t t = now_ns();
      const std::string remote = conn.exchange(request);
      const double round_trip = us_since(t);
      if (socket.server_cpu >= 0) pin_to({socket.server_cpu});
      t = now_ns();
      std::string local = session.execute(map, none);
      const double execute = us_since(t);
      if (!local.empty() && local.back() == '\n') local.pop_back();
      if (rep == 2 && remote == local) self_us.push_back(round_trip - execute);
    }
  }
  return self_us;
}

}  // namespace

bool bindings_contain_mapped_pus(const Workload& w, std::string& why) {
  std::map<int, lama::Allocation> allocs;
  for (const Key& key : w.keys) {
    if (!key.bind) continue;
    if (!allocs.count(key.alloc)) allocs[key.alloc] = build_alloc(w.allocs[key.alloc].second);
    const lama::Allocation& alloc = allocs[key.alloc];
    lama::MapOptions opts;
    opts.np = key.np;
    const lama::MappingResult mapping =
        lama::lama_map(alloc, layout_string(key.layout), opts);
    const lama::BindingResult bound =
        lama::bind_processes(alloc, mapping, lama::BindingPolicy{lama::BindTarget::kCore});
    for (std::size_t r = 0; r < mapping.placements.size(); ++r) {
      if (!bound.bindings[r].cpuset.test(mapping.placements[r].representative_pu())) {
        why = "bind=core: rank " + std::to_string(r) + " of " + layout_string(key.layout) +
              " np=" + std::to_string(key.np) + " is bound away from its mapped PU";
        return false;
      }
    }
  }
  return true;
}

std::map<std::string, LayerMetric> trace_layers(const Workload& w, const SocketPhase& socket,
                                                const std::string& scratch) {
  std::map<std::string, LayerMetric> m;
  const double ops = static_cast<double>(w.ops.size());
  std::filesystem::create_directories(scratch);

  std::vector<double> transport_self;
  const ProtocolReplay traced = replay_protocol(
      w, scratch + "/replay",
      [&](lama::svc::ProtocolSession& session) {
        transport_self = probe_transport(w, socket, session);
      });
  const ServiceReplay service = replay_service(w);
  const auto verb = [&](const char* v) {
    return traced.verb.count(v) ? med(traced.verb.at(v)) : 0.0;
  };

  // transport
  std::vector<double> connect_us;
  for (const std::uint64_t ns : socket.connect_ns) connect_us.push_back(static_cast<double>(ns) / 1e3);
  m["transport.self_us"] = {med(transport_self), "us"};
  m["transport.connect_us"] = {med(connect_us), "us"};
  m["transport.bytes_per_op"] = {static_cast<double>(socket.bytes) / ops, "B"};

  // wire: the framing and seal of this workload's requests and answers.
  {
    std::vector<std::string> payloads;
    for (const Op& op : w.ops) {
      for (const Line& line : op.lines) {
        if (payloads.size() < kMaxFrames) payloads.push_back(line.command);
      }
    }
    const std::uint64_t t = now_ns();
    std::size_t frames = 0;
    for (const std::string& p : payloads) {
      const auto verb_byte = lama::svc::wire_verb_for_keyword(p.substr(0, p.find(' ')));
      if (!verb_byte) continue;
      const std::string frame = lama::svc::encode_frame(*verb_byte, p);
      lama::svc::WireFrame decoded;
      std::size_t consumed = 0;
      std::string error;
      frames += lama::svc::decode_frame(frame, decoded, consumed, error) ==
                lama::svc::FrameStatus::kFrame;
    }
    m["wire.frame_ns"] = {us_since(t) * 1e3 / static_cast<double>(std::max<std::size_t>(1, frames)), "ns"};
    std::vector<double> crc;
    const double kib = static_cast<double>(traced.answers.size()) / 1024.0;
    for (int rep = 0; rep < 5 && kib > 0; ++rep) {
      const std::uint64_t c = now_ns();
      volatile std::uint32_t seal = lama::crc32c(traced.answers);
      (void)seal;
      crc.push_back(us_since(c) * 1e3 / kib);
    }
    m["wire.crc32c_ns_per_kib"] = {med(crc), "ns/KiB"};
  }

  // protocol
  std::vector<double> self;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    if (traced.map_us[i] > 0 && service.map_us[i] > 0) self.push_back(traced.map_us[i] - service.map_us[i]);
  }
  m["protocol.map_self_us"] = {med(self), "us"};
  m["protocol.format_us"] = {med(service.format_us), "us"};
  m["protocol.node_us"] = {med(traced.node_us), "us"};
  m["protocol.offline_us"] = {verb("OFFLINE"), "us"};
  m["protocol.online_us"] = {verb("ONLINE"), "us"};
  m["protocol.remap_us"] = {verb("REMAP"), "us"};

  // service
  const auto delta = [&](const char* key) {
    return socket.stats_delta.count(key) ? socket.stats_delta.at(key) : 0.0;
  };
  const auto ratio = [](double a, double b) { return a + b > 0 ? a / (a + b) : 0.0; };
  m["service.map_hit_us"] = {med(service.hit_us), "us"};
  m["service.map_miss_us"] = {med(service.miss_us), "us"};
  m["service.intern_us"] = {med(service.intern_us), "us"};
  m["service.invalidate_us"] = {med(service.invalidate_us), "us"};
  m["service.tree_hit_ratio"] = {ratio(delta("hits"), delta("misses")), "ratio"};
  m["service.plan_hit_ratio"] = {ratio(delta("plan_hits"), delta("plan_misses")), "ratio"};
  m["service.evictions"] = {delta("evictions"), "count"};
  m["service.trees_built_per_op"] = {delta("misses") / ops, "count"};

  // lama and cluster/topo
  std::vector<lama::Allocation> allocs;
  for (const auto& [id, cluster] : w.allocs) allocs.push_back(build_alloc(cluster));
  const LamaTimes lama_t = time_lama(w, allocs);
  m["lama.maximal_tree_ns_per_node"] = {med(lama_t.tree_ns_per_node), "ns"};
  m["lama.plan_compile_us"] = {med(lama_t.compile_us), "us"};
  m["lama.map_compiled_ns_per_rank"] = {med(lama_t.compiled_ns_per_rank), "ns"};
  m["lama.map_reference_ns_per_rank"] = {med(lama_t.reference_ns_per_rank), "ns"};
  m["lama.bind_ns_per_rank"] = {med(lama_t.bind_ns_per_rank), "ns"};
  m["lama.remap_us"] = {med(lama_t.remap_us), "us"};
  {
    std::vector<double> fp, parse;
    for (const lama::Allocation& alloc : allocs) {
      const double nodes = static_cast<double>(alloc.num_nodes());
      for (int rep = 0; rep < 5; ++rep) {
        const std::uint64_t t = now_ns();
        volatile std::uint64_t h = lama::allocation_fingerprint(alloc);
        (void)h;
        fp.push_back(us_since(t) * 1e3 / nodes);
      }
    }
    for (const auto& [id, cluster] : w.allocs) {
      const std::vector<std::string> texts = [&] {
        std::vector<std::string> v;
        for (const NodeDesc& node : cluster) v.push_back(sexpr(node));
        return v;
      }();
      const std::uint64_t t = now_ns();
      for (const std::string& text : texts) lama::parse_topology(text);
      parse.push_back(us_since(t) * 1e3 / static_cast<double>(texts.size()));
    }
    m["cluster.fingerprint_ns_per_node"] = {med(fp), "ns"};
    m["cluster.parse_ns_per_node"] = {med(parse), "ns"};
  }

  // dur: the journal's cost per record of this workload's lines, and what
  // the workload actually journals per operation.
  {
    std::vector<std::string> lines;
    for (const Op& op : w.ops) {
      for (const Line& line : op.lines) {
        for (const std::string& text : split_lines(line.command)) {
          if (lines.size() < kMaxRecords) lines.push_back(text);
        }
      }
    }
    std::vector<double> record, flush;
    lama::dur::DurConfig each;
    each.dir = scratch + "/dur-each";
    lama::dur::StateStore durable(each);
    durable.restore();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::uint64_t t = now_ns();
      durable.record(lines[i], i);
      record.push_back(us_since(t));
    }
    lama::dur::DurConfig batched;
    batched.dir = scratch + "/dur-batched";
    batched.fsync_every = 1u << 20;
    lama::dur::StateStore deferred(batched);
    deferred.restore();
    for (std::size_t i = 0; i < lines.size() && i < 64; ++i) {
      deferred.record(lines[i], i);
      const std::uint64_t t = now_ns();
      deferred.flush();
      flush.push_back(us_since(t));
    }
    m["dur.record_us"] = {med(record), "us"};
    m["dur.flush_us"] = {med(flush), "us"};
    m["dur.bytes_per_op"] = {static_cast<double>(traced.dur_bytes) / ops, "B"};
    m["dur.records_per_op"] = {static_cast<double>(traced.dur_records) / ops, "count"};
  }

  const double timed_per_op = traced.timed_s / static_cast<double>(traced.timed_ops);
  const double plain_per_op = traced.plain_s / static_cast<double>(traced.plain_ops);
  m["trace.overhead_pct"] = {(timed_per_op - plain_per_op) / plain_per_op * 100.0, "%"};
  std::filesystem::remove_all(scratch);
  return m;
}

}  // namespace pb
