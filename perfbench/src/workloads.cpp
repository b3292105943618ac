#include "workloads.hpp"

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "net.hpp"
#include "oracle.hpp"
#include "svc/protocol.hpp"
#include "svc/wire.hpp"
#include "topo/serialize.hpp"

namespace pb {

namespace {

// Operations per second of run length. They fix each run's operation count
// from --seconds alone, so state size, cache contents and memory never
// depend on how fast a run went; they are sized so a run on a 4-CPU host
// lasts about --seconds.
constexpr int kWarmRoundsPerSecond = 50;  // of 48 MAPs each
constexpr int kColdRoundsPerSecond = 12;    // of 3 cold MAPs each
constexpr int kFailoverCyclesPerSecond = 14;
constexpr int kRequeryRoundsPerSecond = 2;  // of kRequeriesPerRound queries
constexpr int kRequeriesPerRound = 100;

// Every workload defines the same standing cluster first — 1024 nodes of the
// three shapes — and checks one MAP over all of it against the oracle, so
// set-up does real work everywhere.
void add_standing(Workload& w, std::mt19937_64& rng) {
  w.allocs.emplace_back("standing", make_cluster(rng, 512, 384, 128, 1));
  const Layout layout = {kSocket, kCore, kBoard, kNode, kPu};
  w.prime.emplace_back("MAP standing 1024 lama:" + layout_string(layout),
                       expected_map_response(
                           oracle_map(w.allocs[0].second, layout, 1024, false),
                           false, false));
}

void add_nodes(Workload& w, const std::string& id, const Cluster& cluster) {
  for (std::string& line : node_lines(cluster, id)) w.prime.emplace_back(std::move(line), "");
}

Line text_line(const std::string& command) {
  Line line;
  line.command = command;
  line.request = command + "\n";
  return line;
}

std::string map_command(const std::string& alloc, const Key& key) {
  return "MAP " + alloc + " " + std::to_string(key.np) + " lama:" +
         layout_string(key.layout) + (key.bind ? " bind=core" : "");
}

std::string field(const std::string& answer, const std::string& key) {
  const std::size_t at = answer.find(" " + key + "=");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size() + 2;
  return answer.substr(begin, answer.find(' ', begin) - begin);
}

std::vector<int> parse_csv(const std::string& text) {
  std::vector<int> out;
  if (text.empty() || text == "-") return out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    out.push_back(std::stoi(text.substr(begin, comma - begin)));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

Layout shuffled(std::vector<int> levels, std::mt19937_64& rng) {
  std::shuffle(levels.begin(), levels.end(), rng);
  return levels;
}

const std::vector<int> kAllLevels = {kNode, kBoard, kSocket, kNuma, kL3,
                                     kL2,   kL1,    kCore,   kPu};

// warm_map: 48 keys — two allocations (64 and 256 nodes) x three layouts x
// np 16..1024 x bind none/core — all primed in set-up, then sent in whole
// seeded rounds over three keep-alive connections (two binary, one text).
Workload warm_map(std::mt19937_64& rng, int seconds) {
  Workload w;
  w.name = "warm_map";
  w.binary = {true, true, false};
  add_standing(w, rng);
  w.allocs.emplace_back("w64", make_cluster(rng, 24, 24, 16, 1));
  w.allocs.emplace_back("w256", make_cluster(rng, 112, 96, 48, 1));
  add_nodes(w, "w64", w.allocs[1].second);
  add_nodes(w, "w256", w.allocs[2].second);
  const std::vector<Layout> layouts = {
      {kPu, kCore, kSocket, kBoard, kNode},    // hcsbn: pack
      {kNode, kSocket, kBoard, kCore, kPu},    // nsbch: scatter over nodes
      {kSocket, kCore, kBoard, kNode, kPu}};   // scbnh: the paper's Fig. 2
  for (int a = 1; a <= 2; ++a) {
    for (const Layout& layout : layouts) {
      for (const std::size_t np : {16u, 64u, 256u, 1024u}) {
        for (const bool bind : {false, true}) {
          w.keys.push_back(Key{a, layout, np, bind});
        }
      }
    }
  }
  std::vector<std::string> expected(w.keys.size());
  for (std::size_t k = 0; k < w.keys.size(); ++k) {
    const Key& key = w.keys[k];
    const Answer answer =
        oracle_map(w.allocs[key.alloc].second, key.layout, key.np, key.bind);
    expected[k] = expected_map_response(answer, true, key.bind);
    w.prime.emplace_back(map_command(w.allocs[key.alloc].first, key), "");
  }
  std::vector<int> order(w.keys.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = static_cast<int>(k);
  w.round_ops = w.keys.size();
  const int rounds = kWarmRoundsPerSecond * seconds;
  for (int r = 0; r < rounds; ++r) {
    std::shuffle(order.begin(), order.end(), rng);
    for (const int k : order) {
      Op op;
      op.key = k;
      op.conn = static_cast<int>(w.ops.size() % w.binary.size());
      Line line = text_line(map_command(w.allocs[w.keys[k].alloc].first, w.keys[k]));
      if (w.binary[static_cast<std::size_t>(op.conn)]) {
        line.request = lama::svc::encode_frame(
            *lama::svc::wire_verb_for_keyword(line.command.substr(0, line.command.find(' '))),
            line.command);
      }
      line.expect = answer_hash(expected[static_cast<std::size_t>(k)]);
      op.lines.push_back(std::move(line));
      w.ops.push_back(std::move(op));
    }
  }
  return w;
}

// cold_layout: one connection; every MAP names a layout not requested
// before in the run — two full 9-level permutations and one 7-level partial
// layout per round — over 256 nodes of three shapes, with a cache of eight
// entries that set-up fills, so each MAP builds, compiles and evicts.
Workload cold_layout(std::mt19937_64& rng, int seconds) {
  Workload w;
  w.name = "cold_layout";
  w.server_args = {"--capacity", "1"};
  w.binary = {false};
  add_standing(w, rng);
  w.allocs.emplace_back("cold", make_cluster(rng, 112, 96, 48, 1));
  const Cluster& cold = w.allocs[1].second;
  add_nodes(w, "cold", cold);

  std::set<std::string> used;
  const auto fresh_layout = [&](const std::vector<int>& levels) {
    for (;;) {
      Layout layout = shuffled(levels, rng);
      if (used.insert(layout_string(layout)).second) return layout;
    }
  };
  constexpr std::size_t kNp = 256;
  // Priming fills the eight cache shards with 5-level layouts, a class the
  // measured operations never use.
  for (int i = 0; i < 24; ++i) {
    const Key key{1, fresh_layout({kNode, kSocket, kNuma, kCore, kPu}), kNp, false};
    w.prime.emplace_back(map_command("cold", key), "");
  }
  const std::vector<int> partial = {kNode, kBoard, kSocket, kL3, kL2, kCore, kPu};
  w.round_ops = 3;
  const int rounds = kColdRoundsPerSecond * seconds;
  for (int r = 0; r < rounds; ++r) {
    std::vector<Layout> round = {fresh_layout(kAllLevels), fresh_layout(kAllLevels),
                                 fresh_layout(partial)};
    std::shuffle(round.begin(), round.end(), rng);
    for (Layout& layout : round) {
      Op op;
      op.key = static_cast<int>(w.keys.size());
      w.keys.push_back(Key{1, std::move(layout), kNp, false});
      const Key& key = w.keys.back();
      Line line = text_line(map_command("cold", key));
      line.expect = answer_hash(
          expected_map_response(oracle_map(cold, key.layout, kNp, false), false, false));
      op.lines.push_back(std::move(line));
      w.ops.push_back(std::move(op));
    }
  }
  return w;
}

// failover: one connection, durability on. One operation is a whole
// failure cycle on a 256-node allocation — OFFLINE a node that hosts ranks,
// REMAP, ONLINE it again, MAP — so every cycle bumps the epoch twice,
// journals four records and rebuilds the tree.
Workload failover(std::mt19937_64& rng, int seconds) {
  Workload w;
  w.name = "failover";
  w.durable = true;
  w.binary = {false};
  add_standing(w, rng);
  w.allocs.emplace_back("fo", make_cluster(rng, 112, 96, 48, 1));
  const Cluster& fo = w.allocs[1].second;
  add_nodes(w, "fo", fo);
  w.keys.push_back(Key{1, {kNode, kSocket, kBoard, kCore, kPu}, 2 * fo.size(), false});
  const Key& key = w.keys[0];
  const std::string map = map_command("fo", key);
  const Answer base = oracle_map(fo, key.layout, key.np, false);
  const std::string map_answer = expected_map_response(base, false, false);
  w.prime.emplace_back(map, map_answer);
  const std::uint64_t map_hash = answer_hash(map_answer);

  std::vector<int> victims;
  std::uniform_int_distribution<std::size_t> pick(0, base.nodes.size() - 1);
  const int cycles = kFailoverCyclesPerSecond * seconds;
  for (int c = 0; c < cycles; ++c) {
    const int node = base.nodes[pick(rng)];
    victims.push_back(node);
    Op op;
    op.key = 0;
    for (const std::string& cmd :
         {"OFFLINE fo " + std::to_string(node), std::string("REMAP fo"),
          "ONLINE fo " + std::to_string(node)}) {
      Line line = text_line(cmd);
      line.keep = true;
      op.lines.push_back(std::move(line));
    }
    Line map_line = text_line(map);
    map_line.expect = map_hash;
    op.lines.push_back(std::move(map_line));
    w.ops.push_back(std::move(op));
  }

  w.check = [base, victims, np = key.np](
                const std::vector<std::vector<std::string>>& kept,
                std::vector<Fail>& fail, std::string& why) {
    long last_epoch = -1;
    const auto bad = [&](std::size_t op, const std::string& reason) {
      if (fail[op] == Fail::kNone) fail[op] = Fail::kWrong;
      if (why.empty()) why = "cycle " + std::to_string(op) + ": " + reason;
    };
    for (std::size_t op = 0; op < kept.size(); ++op) {
      if (fail[op] != Fail::kNone || kept[op].size() != 3) continue;
      const std::string& off = kept[op][0];
      const std::string& remap = kept[op][1];
      const std::string& on = kept[op][2];
      const int victim = victims[op];
      if (off.rfind("OK offline fo ", 0) != 0 || on.rfind("OK online fo ", 0) != 0 ||
          remap.rfind("OK remap ", 0) != 0) {
        bad(op, "unexpected answer: " + off.substr(0, 80) + " | " +
                    remap.substr(0, 80) + " | " + on.substr(0, 80));
        continue;
      }
      try {
        const long e_off = std::stol(field(off, "epoch"));
        const long e_on = std::stol(field(on, "epoch"));
        if (std::stoi(field(off, "node")) != victim || std::stoi(field(on, "node")) != victim) {
          bad(op, "OFFLINE/ONLINE answered for another node");
        }
        if (!(e_off > last_epoch && e_on > e_off)) bad(op, "epochs do not strictly increase");
        last_epoch = e_on;
        if (std::stol(field(remap, "epoch")) != e_off) bad(op, "REMAP ran at another epoch");
        const std::vector<int> nodes = parse_csv(field(remap, "nodes"));
        const std::vector<int> pus = parse_csv(field(remap, "pus"));
        const std::vector<int> displaced = parse_csv(field(remap, "displaced"));
        if (nodes.size() != np || pus.size() != np ||
            std::stoul(field(remap, "np")) != np ||
            std::stoul(field(remap, "surviving")) + displaced.size() != np) {
          bad(op, "REMAP answer does not cover np ranks");
          continue;
        }
        std::vector<int> expect_displaced;
        std::set<std::pair<int, int>> used;
        for (std::size_t r = 0; r < np; ++r) {
          if (base.nodes[r] == victim) expect_displaced.push_back(static_cast<int>(r));
          if (nodes[r] == victim) bad(op, "rank " + std::to_string(r) + " landed on the offline node");
          if (base.nodes[r] != victim && (nodes[r] != base.nodes[r] || pus[r] != base.pus[r])) {
            bad(op, "surviving rank " + std::to_string(r) + " moved");
          }
          if (!used.insert({nodes[r], pus[r]}).second) {
            bad(op, "PU reused without oversubscription");
          }
        }
        if (displaced != expect_displaced) bad(op, "displaced ranks are not those of the offline node");
      } catch (const std::exception&) {
        bad(op, "unparsable answer: " + remap.substr(0, 80));
      }
    }
  };
  return w;
}

// stateless_requery: what `lamactl query --connect` does, repeated — a new
// text connection per query carrying format_query's NODE and MAP lines for
// the same one-node allocation under the same id. A round is 100 such
// queries under one id; each round has its own id and its own node (one PU
// off-line, a different one per round) so rounds share no cache entries.
// Because NODE appends (the named fault), cost grows through a round and
// restarts with the next one: every percentile samples every round instead
// of one stretch of the run. The queries do not depend on the seed.
Workload stateless_requery(std::mt19937_64& rng, int seconds) {
  Workload w;
  w.name = "stateless_requery";
  w.binary = {};
  add_standing(w, rng);
  const Layout layout = {kNode, kSocket, kCore, kBoard, kPu};
  w.keys.push_back(Key{1, layout, 4, false});
  w.round_ops = kRequeriesPerRound;
  const int rounds = kRequeryRoundsPerSecond * seconds;
  for (int r = 0; r < rounds; ++r) {
    const std::string id = "q" + std::to_string(r);
    NodeDesc node;
    node.shape = &kFat;
    node.leaf_offline.assign(static_cast<std::size_t>(kFat.leaves()), false);
    node.leaf_offline[static_cast<std::size_t>(r % kFat.leaves())] = true;
    if (r == 0) w.allocs.emplace_back("q0", Cluster{node});

    lama::Allocation alloc;
    alloc.add(lama::AllocatedNode{0, lama::parse_topology(sexpr(node)),
                                  static_cast<std::size_t>(kFat.leaves())});
    const std::string query =
        lama::svc::format_query(alloc, id, 4, "lama:" + layout_string(layout));
    const std::uint64_t expected = answer_hash(
        "OK node " + id + " n=1\n" +
        expected_map_response(oracle_map(Cluster{node}, layout, 4, false), false, false));
    for (int i = 0; i < kRequeriesPerRound; ++i) {
      Op op;
      op.fresh = true;
      op.key = 0;
      op.known_fault = i > 0;
      Line line;
      line.command = query.substr(0, query.size() - 1);
      line.request = query;
      line.answer_lines = 2;
      line.expect = expected;
      op.lines.push_back(std::move(line));
      w.ops.push_back(std::move(op));
    }
  }
  return w;
}

}  // namespace

std::uint64_t answer_hash(std::string_view answer) {
  return std::hash<std::string_view>{}(answer);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"warm_map", "cold_layout", "failover",
                                                 "stateless_requery"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, int seconds) {
  std::mt19937_64 rng(seed);
  if (name == "warm_map") return warm_map(rng, seconds);
  if (name == "cold_layout") return cold_layout(rng, seconds);
  if (name == "failover") return failover(rng, seconds);
  if (name == "stateless_requery") return stateless_requery(rng, seconds);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace pb
