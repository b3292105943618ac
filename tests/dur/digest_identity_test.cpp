// The session keeps one content hash per allocation node and per remap
// baseline, refreshed only where a mutation changes them; the state digest
// and the interned allocation fingerprint fold those cached hashes. These
// tests (ctest label "dur") hold the cached values to the from-scratch ones:
//
//   - seeded random NODE/OFFLINE/ONLINE/MAP/REMAP sequences with restarts
//     through snapshot + journal, checked after every step against a digest
//     recomputed here from the session's snapshot lines, a fingerprint of a
//     fresh copy of each allocation, and HEALTH's state_digest=;
//   - golden digest and fingerprint constants for a fixed Fig. 2 sequence;
//   - a state directory written by an earlier build (tests/golden/dur/state),
//     which must restore with a clean self-check and its original digest.
#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/alloc_serialize.hpp"
#include "cluster/cluster.hpp"
#include "dur/state_store.hpp"
#include "dur/temp_dir.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "topo/serialize.hpp"

namespace lama::svc {
namespace {

// The state digest recomputed from the session's snapshot lines, which
// serialize every topology and cpuset afresh. Same fold as the session's:
// per allocation (in id order) its id, epoch, every node's slots and
// topology hash, then the remap baseline or a 0 marker.
std::uint64_t oracle_digest(const std::vector<std::string>& lines) {
  struct Alloc {
    std::vector<std::pair<std::size_t, std::string>> nodes;
    std::uint64_t epoch = 0;
    std::vector<std::string> last;  // #LAST tokens after the id
  };
  std::map<std::string, Alloc> allocs;
  for (const std::string& line : lines) {
    const std::vector<std::string> tokens = split_ws(line);
    if (tokens[0] == "NODE") {
      const std::size_t topo_at = line.find('(');
      allocs[tokens[1]].nodes.emplace_back(parse_size(tokens[2], "slots"),
                                           line.substr(topo_at));
    } else if (tokens[0] == "#EPOCH") {
      allocs[tokens[1]].epoch = parse_size(tokens[2], "epoch");
    } else if (tokens[0] == "#LAST") {
      allocs[tokens[1]].last.assign(tokens.begin() + 2, tokens.end());
    }
  }
  std::uint64_t h = fnv1a64("lama-dur-v1");
  for (const auto& [id, a] : allocs) {
    h = hash_combine(h, fnv1a64(id));
    h = hash_combine(h, a.epoch);
    for (const auto& [slots, topo] : a.nodes) {
      h = hash_combine(h, slots);
      h = hash_combine(h, fnv1a64(topo));
    }
    if (a.last.empty()) {
      h = hash_combine(h, 0);
      continue;
    }
    std::map<std::string, std::string> field;
    for (const std::string& kv : a.last) {
      const auto eq = kv.find('=');
      field[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    h = hash_combine(h, 1);
    h = hash_combine(h, fnv1a64(field["layout"]));
    for (const char* key : {"np", "oversub", "pus", "npernode", "sweeps"}) {
      h = hash_combine(h, parse_size(field[key], key));
    }
    for (const std::string& p : split(field["placements"], ';')) {
      if (p.empty()) continue;
      const std::vector<std::string> parts = split(p, ':');
      h = hash_combine(h, parse_size(parts[0], "rank"));
      h = hash_combine(h, parse_size(parts[1], "node"));
      h = hash_combine(h, fnv1a64(parts.size() > 2 ? parts[2] : ""));
    }
  }
  return h;
}

// A fresh Allocation per id, parsed from the snapshot lines' NODE records.
std::map<std::string, Allocation> fresh_allocations(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::string> text;
  for (const std::string& line : lines) {
    if (!starts_with(line, "NODE ")) continue;
    const std::vector<std::string> tokens = split_ws(line);
    text[tokens[1]] += tokens[2] + " " + line.substr(line.find('(')) + "\n";
  }
  std::map<std::string, Allocation> out;
  for (const auto& [id, t] : text) out.emplace(id, parse_allocation(t));
  return out;
}

std::uint64_t health_digest(const std::string& health) {
  const auto at = health.find("state_digest=");
  if (at == std::string::npos) return 0;
  return std::stoull(health.substr(at + 13, 16), nullptr, 16);
}

// One serving process: service, optional state store and session, restored
// from `dir` when one is given.
struct Server {
  explicit Server(const std::string& dir = "") : session(service) {
    if (dir.empty()) return;
    store = std::make_unique<dur::StateStore>(
        dur::DurConfig{.dir = dir, .snapshot_every = 5, .fsync_every = 64});
    service.attach_durability(store.get());
    recovery = session.restore_from(*store);
  }
  ~Server() {
    if (store != nullptr) store->flush();
  }

  std::string operator()(const std::string& line) {
    std::string response = session.execute(line, no_more);
    if (!response.empty() && response.back() == '\n') response.pop_back();
    return response;
  }

  // The three identities, checked after every step.
  void check(const std::string& step) {
    SCOPED_TRACE(step);
    const std::vector<std::string> lines = session.snapshot_lines();
    const std::uint64_t digest = session.state_digest();
    EXPECT_EQ(digest, oracle_digest(lines));
    EXPECT_EQ(health_digest((*this)("HEALTH")), digest);
    for (const auto& [id, alloc] : fresh_allocations(lines)) {
      if (!alloc.has_online_pu()) continue;  // cannot be interned
      const InternedAlloc& handle = session.interned(id);
      EXPECT_EQ(handle.fingerprint, allocation_fingerprint(alloc)) << id;
      EXPECT_EQ(handle.fingerprint,
                allocation_fingerprint(Allocation(*handle.alloc)))
          << id;
    }
  }

  MappingService service{{.workers = 0}};
  std::unique_ptr<dur::StateStore> store;
  ProtocolSession session;
  ProtocolSession::RecoveryInfo recovery;
  std::istringstream no_more;
};

const char* const kShapes[] = {"socket:2 core:4 pu:2", "socket:1 core:4",
                               "socket:2 core:2 pu:2", "numa:2 core:3"};
const char* const kSpecs[] = {"lama", "lama:scbnh", "lama:nsch",
                              "lama:csbnh", "lama:hcsn", "bynode"};

// One random protocol line over allocations "a" and "b". `nodes` mirrors
// each allocation's node count and PU counts so indices stay in range (an
// out-of-range line would only exercise the parser).
std::string random_line(std::mt19937& rng,
                        std::map<std::string, std::vector<std::size_t>>& nodes) {
  const std::string id = rng() % 2 == 0 ? "a" : "b";
  std::vector<std::size_t>& pus = nodes[id];
  const unsigned verb = pus.empty() ? 0 : rng() % 8;
  if (verb == 0) {
    const NodeTopology topo =
        Cluster::homogeneous(1, kShapes[rng() % std::size(kShapes)])
            .node(0)
            .topo;
    pus.push_back(topo.pu_count());
    return "NODE " + id + " " + std::to_string(1 + rng() % topo.pu_count()) +
           " " + serialize_topology(topo);
  }
  const std::size_t node = rng() % pus.size();
  if (verb <= 3) {
    std::string line = std::string(verb <= 2 ? "OFFLINE " : "ONLINE ") + id +
                       " " + std::to_string(node);
    const unsigned count = rng() % 4;  // 0 = the whole node
    for (unsigned i = 0; i < count; ++i) {
      line += " " + std::to_string(rng() % pus[node]);
    }
    return line;
  }
  if (verb <= 5) {
    return "MAP " + id + " " + std::to_string(1 + rng() % 24) + " " +
           kSpecs[rng() % std::size(kSpecs)];
  }
  return "REMAP " + id;
}

TEST(DigestIdentity, RandomSequencesMatchFromScratchRecomputation) {
  for (unsigned seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    dur::TempDir dir;
    ASSERT_TRUE(dir.ok());
    std::mt19937 rng(seed);
    std::map<std::string, std::vector<std::size_t>> nodes;
    auto server = std::make_unique<Server>(dir.path());
    for (int step = 0; step < 60; ++step) {
      const std::string line = random_line(rng, nodes);
      (*server)(line);
      server->check(line);
      if (step % 13 == 12) {
        // Restart: the rebuilt state must hash to the sealed digest, and
        // its cached hashes must again match the recomputation.
        const std::uint64_t before = server->session.state_digest();
        server.reset();
        server = std::make_unique<Server>(dir.path());
        EXPECT_TRUE(server->recovery.self_check_ok);
        EXPECT_EQ(server->recovery.replay_errors, 0u);
        EXPECT_EQ(server->session.state_digest(), before);
        server->check("restart after " + line);
      }
    }
  }
}

// Digests and fingerprints after each step of a fixed Fig. 2 sequence, as
// computed before the session cached its per-node hashes. The constants
// pin the values journal records, snapshots and HEALTH carry.
TEST(DigestIdentity, Fig2SequenceMatchesGoldenConstants) {
  struct Step {
    std::string line;
    std::uint64_t digest;
    std::uint64_t fingerprint;
  };
  const std::string node =
      "NODE g 16 (node@0 (socket@0 (core@0 (pu@0) (pu@1)) (core@1 (pu@2) "
      "(pu@3)) (core@2 (pu@4) (pu@5)) (core@3 (pu@6) (pu@7))) (socket@1 "
      "(core@4 (pu@8) (pu@9)) (core@5 (pu@10) (pu@11)) (core@6 (pu@12) "
      "(pu@13)) (core@7 (pu@14) (pu@15))))";
  const std::vector<Step> steps = {
      {node, 0x9e4b3f1553dc113cULL, 0xfb17ff4ad1d45e35ULL},
      {node, 0x4e7a412fbbc0c566ULL, 0x9098446806988436ULL},
      {"MAP g 24 lama:scbnh", 0x2677cea7bf6bc6afULL, 0x9098446806988436ULL},
      {"OFFLINE g 1", 0x1162404ea9426e4cULL, 0x883c749ccabf4f61ULL},
      {"REMAP g", 0x9477046856405e50ULL, 0x883c749ccabf4f61ULL},
      {"ONLINE g 1", 0x82f14b720bcd6c59ULL, 0x9098446806988436ULL},
  };
  Server server;
  for (const Step& step : steps) {
    SCOPED_TRACE(step.line);
    EXPECT_TRUE(starts_with(server(step.line), "OK")) << step.line;
    EXPECT_EQ(server.session.state_digest(), step.digest);
    EXPECT_EQ(server.session.interned("g").fingerprint, step.fingerprint);
    server.check(step.line);
  }
}

// tests/golden/dur/state was written by `lamactl serve --state-dir <dir>
// --snapshot-every 8` from a build that still re-serialized every node per
// record, fed these lines and then killed with SIGKILL:
//
//   NODE f 16 <fig2 node>   NODE f 16 <fig2 node>   NODE f 4 <1x4 cores>
//   MAP f 24 lama:scbnh     OFFLINE f 1             REMAP f
//   NODE h 4 <1x4 cores>    MAP h 6 lama:nsch       (snapshot 1 here)
//   OFFLINE f 0 2 3 9       REMAP f                 ONLINE f 1
//   MAP f 24 lama:scbnh
//
// Its HEALTH answered state_digest=10de384242c6d70d before the kill.
TEST(DigestIdentity, EarlierBuildsStateDirectoryRestoresCleanly) {
  const std::string golden = std::string(LAMA_TEST_GOLDEN_DIR) + "/dur/state";
  dur::TempDir dir;
  ASSERT_TRUE(dir.ok());
  // Restore appends to the journal, so it runs on a copy.
  DIR* d = ::opendir(golden.c_str());
  ASSERT_NE(d, nullptr) << golden;
  std::size_t copied = 0;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    std::ifstream in(golden + "/" + name, std::ios::binary);
    std::ofstream out(dir.path() + "/" + name, std::ios::binary);
    out << in.rdbuf();
    ++copied;
  }
  ::closedir(d);
  ASSERT_EQ(copied, 3u);

  Server server(dir.path());
  EXPECT_TRUE(server.recovery.recovered);
  EXPECT_TRUE(server.recovery.self_check_ok);
  EXPECT_EQ(server.recovery.replay_errors, 0u);
  EXPECT_EQ(server.recovery.snapshot_lines, 8u);
  EXPECT_EQ(server.recovery.journal_records, 4u);
  EXPECT_EQ(server.session.state_digest(), 0x10de384242c6d70dULL);
  const std::string health = server("HEALTH");
  EXPECT_NE(health.find(" recovery_ok=1 "), std::string::npos) << health;
  EXPECT_NE(health.find(" state_digest=10de384242c6d70d "), std::string::npos)
      << health;
  server.check("restored");
  // The restored baseline serves the same placement the writer answered.
  EXPECT_NE(server("MAP f 24 lama:scbnh")
                .find(" nodes=0,0,0,0,0,0,0,1,1,1,1,1,1,1,1,2,2,2,2,0,0,0,0,0 "
                      "pus=0,8,10,4,12,6,14,0,8,2,10,4,12,6,14,0,1,2,3,1,11,5,"
                      "13,7"),
            std::string::npos);
}

}  // namespace
}  // namespace lama::svc
