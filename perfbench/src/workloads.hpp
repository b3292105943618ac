// The four workloads: what set-up defines and primes, the operations a run
// sends (a fixed number, in whole seeded rounds), and what each answer must
// be. Expected answers come from the oracle or, where the oracle does not
// reach (REMAP, epochs), from property checks on the kept answers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "shapes.hpp"

namespace pb {

enum class Fail : std::uint8_t { kNone = 0, kBusy, kErr, kWrong, kTransport };

std::uint64_t answer_hash(std::string_view answer);

struct Line {
  std::string command;     // text protocol, one or more '\n'-joined lines
  std::string request;     // the bytes on the wire (text or a binary frame)
  int answer_lines = 1;
  bool keep = false;       // keep the answer for the property checks
  std::uint64_t expect = 0;  // hash of the exact expected answer (!keep)
};

struct Op {
  std::vector<Line> lines;
  int conn = 0;        // which keep-alive connection carries it
  bool fresh = false;  // opens (and closes) its own connection instead
  int key = -1;        // index into Workload::keys of its MAP, or -1
  // The named NODE-append fault (README) makes this operation's answer
  // wrong: a wrong answer here counts as failed but leaves the run correct.
  bool known_fault = false;
};

// A distinct (allocation, layout, np, bind) MAP of the workload.
struct Key {
  int alloc = 0;  // index into Workload::allocs
  Layout layout;
  std::size_t np = 0;
  bool bind = false;
};

struct Workload {
  std::string name;
  std::vector<std::string> server_args;  // besides --listen
  bool durable = false;                  // adds --state-dir <run dir>
  std::vector<bool> binary;              // per keep-alive connection
  std::vector<std::pair<std::string, Cluster>> allocs;  // [0] is "standing"
  // Set-up after the standing cluster: command and its exact expected
  // answer, or "" where any OK answer will do.
  std::vector<std::pair<std::string, std::string>> prime;
  std::vector<Op> ops;
  std::size_t round_ops = 1;  // operations per seeded round; ops holds whole rounds
  std::vector<Key> keys;
  // Property checks over the kept answers (kept[op] in line order); marks
  // failing ops kWrong and explains the first failure in `why`.
  std::function<void(const std::vector<std::vector<std::string>>& kept,
                     std::vector<Fail>& fail, std::string& why)>
      check;
};

const std::vector<std::string>& workload_names();

// Builds a workload's inputs from the seed; `seconds` sets the number of
// rounds. Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       int seconds);

}  // namespace pb
