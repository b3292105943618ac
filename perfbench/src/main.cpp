// perfbench: drives `lamactl serve --listen` from one load-generator process
// over loopback TCP, checks every answer against the oracle and the
// property checks, and prints one JSON object as the last line of stdout.
// `run.py` builds this program and the server and is the entry point; see
// README.md for the workloads and metrics.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "net.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace pb {
namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kMaxSamples = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string lamactl;
  std::string workdir;
  std::string commit = "unknown";
};

struct Measured {
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> connect_ns;
  std::vector<Fail> fail;
  std::vector<std::vector<std::string>> kept;
  std::vector<std::string> samples;  // the first few unexpected answers
  std::mutex samples_mu;
  double wall_s = 0;
  std::uint64_t bytes = 0;
};

Fail classify(const std::string& answer) {
  if (answer.find("ERR busy") != std::string::npos) return Fail::kBusy;
  if (answer.find("ERR") != std::string::npos) return Fail::kErr;
  return Fail::kWrong;
}

// Runs one operation on `conn` (or a fresh connection), recording its
// latency from the first byte sent to the last byte read.
void run_op(const Op& op, std::size_t index, int port, Conn& conn, Measured& m) {
  Fail fail = Fail::kNone;
  std::string unexpected;
  Conn fresh;
  Conn& c = op.fresh ? fresh : conn;
  const std::uint64_t start = now_ns();
  try {
    if (op.fresh) {
      c.open(port, false);
      m.connect_ns[index] = now_ns() - start;
    }
    for (const Line& line : op.lines) {
      const std::string answer = c.exchange(line.request, line.answer_lines);
      if (line.keep) {
        m.kept[index].push_back(answer);
      } else if (answer_hash(answer) != line.expect && fail == Fail::kNone) {
        fail = classify(answer);
        unexpected = answer;
      }
    }
  } catch (const std::exception& e) {
    fail = Fail::kTransport;
    unexpected = std::string("transport: ") + e.what();
    if (!op.fresh) {
      try {
        conn.open(port, conn.is_open());
      } catch (const std::exception&) {
      }
    }
  }
  m.latency_ns[index] = now_ns() - start;
  if (op.fresh) {
    m.bytes += c.bytes_in + c.bytes_out;  // single-threaded when fresh
    c.close();
  }
  m.fail[index] = fail;
  if (fail != Fail::kNone) {
    const std::lock_guard<std::mutex> lock(m.samples_mu);
    if (m.samples.size() < kMaxSamples) {
      m.samples.push_back("op " + std::to_string(index) + ": " + unexpected.substr(0, 200));
    }
  }
}

// The measured phase: one thread per keep-alive connection (or one thread
// for fresh-connection workloads), each sending its operations closed-loop.
void run_ops(const Workload& w, int port, Measured& m) {
  const std::size_t n = w.ops.size();
  m.latency_ns.assign(n, 0);
  m.connect_ns.assign(n, 0);
  m.fail.assign(n, Fail::kNone);
  m.kept.assign(n, {});
  const std::size_t threads = std::max<std::size_t>(1, w.binary.size());
  std::vector<Conn> conns(threads);
  for (std::size_t t = 0; t < w.binary.size(); ++t) conns[t].open(port, w.binary[t]);

  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  const auto body = [&](std::size_t t) {
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    for (std::size_t i = 0; i < n; ++i) {
      if (w.ops[i].fresh || static_cast<std::size_t>(w.ops[i].conn) == t) {
        run_op(w.ops[i], i, port, conns[t], m);
      }
    }
  };
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(body, t);
  while (ready.load() < threads) std::this_thread::yield();
  const std::uint64_t start = now_ns();
  go.store(true);
  for (std::thread& t : pool) t.join();
  m.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  for (Conn& c : conns) m.bytes += c.bytes_in + c.bytes_out;
}

// Parses "STATS k=v k=v ..." into numbers (non-numeric values skipped).
std::map<std::string, double> parse_stats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    try {
      std::size_t used = 0;
      const double v = std::stod(token.substr(eq + 1), &used);
      if (used == token.size() - eq - 1) out[token.substr(0, eq)] = v;
    } catch (const std::exception&) {
    }
  }
  return out;
}

// Nearest-rank percentile.
double percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::vector<std::string> server_args(const Workload& w, const std::string& state_dir) {
  std::vector<std::string> args = w.server_args;
  if (w.durable) {
    args.push_back("--state-dir");
    args.push_back(state_dir);
  } else {
    args.push_back("--no-persist");
  }
  return args;
}

// One set-up: spawn, define the standing cluster, prime. Returns seconds.
double set_up(const Workload& w, const Args& a, Server& server, const std::string& state_dir,
              int cpu, std::string& problem) {
  std::filesystem::remove_all(state_dir);
  const std::uint64_t start = now_ns();
  server.start(a.lamactl, server_args(w, state_dir), cpu);
  Conn c;
  c.open(server.port(), false);
  for (const std::string& line : node_lines(w.allocs[0].second, w.allocs[0].first)) {
    const std::string answer = c.call(line);
    if (answer.rfind("OK node ", 0) != 0 && problem.empty()) problem = "NODE: " + answer;
  }
  for (const auto& [line, expected] : w.prime) {
    const std::string answer = c.call(line);
    const bool ok = expected.empty() ? answer.rfind("OK ", 0) == 0 : answer == expected;
    if (!ok && problem.empty()) problem = line.substr(0, 60) + ": " + answer.substr(0, 200);
  }
  c.close();
  return static_cast<double>(now_ns() - start) / 1e9;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int run(const Args& a) {
#ifdef PERFBENCH_SANITIZED
  std::cerr << "perfbench: refusing to report from a sanitizer build\n";
  return 3;
#endif
  std::string why;
  if (!oracle_matches_fig2(why)) {
    std::cerr << "perfbench: " << why << "\n";
    return 1;
  }
  const Workload w = make_workload(a.workload, a.seed, a.seconds);
  std::filesystem::create_directories(a.workdir);

  // The server gets a CPU of its own and the load generator the others, so
  // no run depends on where the scheduler happened to place the event loop
  // (the CPUs of a shared host do not run at one speed).
  std::vector<int> client_cpus = allowed_cpus();
  int server_cpu = -1;
  if (client_cpus.size() >= 2) {
    server_cpu = client_cpus.back();
    client_cpus.pop_back();
    pin_to(client_cpus);
  }

  // Set-up, repeated; the last server stays up for the measured phase.
  std::string problem;
  std::vector<double> setups;
  Server server;
  const int repeats = a.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    if (r > 0) server.kill_now();
    setups.push_back(
        set_up(w, a, server, a.workdir + "/state-" + std::to_string(r), server_cpu, problem));
  }
  if (!problem.empty()) {
    std::cerr << "perfbench: set-up answered wrongly: " << problem << "\n";
    return 1;
  }

  Conn control;
  control.open(server.port(), false);
  const std::map<std::string, double> before = parse_stats(control.call("STATS"));
  Measured m;
  const Server::Usage use0 = server.usage();
  run_ops(w, server.port(), m);
  const Server::Usage use1 = server.usage();
  const double rss_mb = static_cast<double>(server.peak_rss_kib()) / 1024.0;
  std::map<std::string, double> after = parse_stats(control.call("STATS"));
  SocketPhase socket;
  if (a.trace) {
    for (const auto& [k, v] : after) socket.stats_delta[k] = v - (before.count(k) ? before.at(k) : 0);
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      if (w.ops[i].fresh) socket.connect_ns.push_back(m.connect_ns[i]);
    }
    for (int i = 0; socket.connect_ns.empty() && i < 64; ++i) {
      Conn probe;
      const std::uint64_t t = now_ns();
      probe.open(server.port(), false);
      socket.connect_ns.push_back(now_ns() - t);
    }
  }
  control.close();

  // Checks, outside the timed window.
  std::string check_why;
  if (w.check) w.check(m.kept, m.fail, check_why);
  if (!bindings_contain_mapped_pus(w, check_why)) {
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      const int k = w.ops[i].key;
      if (k >= 0 && w.keys[static_cast<std::size_t>(k)].bind && m.fail[i] == Fail::kNone) {
        m.fail[i] = Fail::kWrong;
      }
    }
  }
  // Correct: every property held and every failure is a wrong answer the
  // named fault explains; any other failure, however few, is not.
  bool correct = check_why.empty();
  std::uint64_t failed = 0;
  std::map<Fail, std::uint64_t> by_reason;
  for (std::size_t i = 0; i < m.fail.size(); ++i) {
    const Fail f = m.fail[i];
    if (f == Fail::kNone) continue;
    ++failed;
    ++by_reason[f];
    if (f != Fail::kWrong || !w.ops[i].known_fault) correct = false;
  }
  const std::size_t ops = w.ops.size();

  std::cout << "perfbench workload=" << w.name << " seed=" << a.seed << " ops=" << ops
            << " trace=" << (a.trace ? 1 : 0) << "\n";
  std::cout << "host nproc=" << std::thread::hardware_concurrency()
            << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\"" << PERFBENCH_COMPILER
            << "\" commit=" << a.commit << " server_cpu=" << server_cpu << "\n";
  const double dops = static_cast<double>(ops);
  std::cout << "server user_us_per_op=" << (use1.user_us - use0.user_us) / dops
            << " sys_us_per_op=" << (use1.sys_us - use0.sys_us) / dops
            << " minor_faults_per_op=" << (use1.minor_faults - use0.minor_faults) / dops << "\n";
  std::cout << "setup_s each=";
  for (std::size_t r = 0; r < setups.size(); ++r) std::cout << (r ? "," : "") << setups[r];
  std::cout << "\n";
  std::cout << "failures busy=" << by_reason[Fail::kBusy] << " err=" << by_reason[Fail::kErr]
            << " wrong=" << by_reason[Fail::kWrong] << " transport=" << by_reason[Fail::kTransport]
            << "\n";
  for (const std::string& s : m.samples) std::cout << "unexpected " << s << "\n";
  if (!check_why.empty()) std::cout << "property " << check_why << "\n";

  std::vector<std::pair<std::string, LayerMetric>> metrics;
  if (a.trace) {
    socket.port = server.port();
    socket.server_cpu = server_cpu;
    socket.client_cpus = client_cpus;
    socket.bytes = m.bytes;
    // The in-process layers run where the server ran.
    if (server_cpu >= 0) pin_to({server_cpu});
    for (const auto& [name, metric] : trace_layers(w, socket, a.workdir + "/trace")) {
      metrics.emplace_back(name, metric);
    }
  } else {
    const double cpu_us = use1.user_us + use1.sys_us - use0.user_us - use0.sys_us;
    metrics = {
        {"ops_per_s", {dops / m.wall_s, "1/s"}},
        {"latency_p50_us", {percentile(m.latency_ns, 0.50) / 1e3, "us"}},
        {"latency_p90_us", {percentile(m.latency_ns, 0.90) / 1e3, "us"}},
        {"server_cpu_us_per_op", {cpu_us / dops, "us"}},
        {"setup_s", {median(setups), "s"}},
        {"peak_rss_mb", {rss_mb, "MiB"}},
    };
  }
  server.stop();
  std::filesystem::remove_all(a.workdir);

  // Reaching this point also means the oracle matched Figure 2 and every
  // set-up answer matched.
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(ops) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + json_number(metrics[i].second.value) +
           ", \"unit\": \"" + metrics[i].second.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Args a;
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const auto value = [&]() -> const std::string& {
        if (i + 1 >= args.size()) throw std::invalid_argument(args[i] + " needs a value");
        return args[++i];
      };
      if (args[i] == "--workload") a.workload = value();
      else if (args[i] == "--seed") a.seed = std::stoull(value());
      else if (args[i] == "--seconds") a.seconds = std::stoi(value());
      else if (args[i] == "--trace") a.trace = value() == "1";
      else if (args[i] == "--lamactl") a.lamactl = value();
      else if (args[i] == "--workdir") a.workdir = value();
      else if (args[i] == "--commit") a.commit = value();
      else throw std::invalid_argument("unknown option " + args[i]);
    }
    if (a.workload.empty() || a.seconds < 1 || a.lamactl.empty() || a.workdir.empty()) {
      throw std::invalid_argument(
          "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
          "--lamactl PATH --workdir DIR [--commit ID]");
    }
    return pb::run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
