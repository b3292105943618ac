#include "net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "svc/wire.hpp"

extern char** environ;

namespace pb {

namespace {

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) throw sys_error("sched_setaffinity");
}

// ---------------------------------------------------------------- Server

Server::~Server() { stop(); }

void Server::start(const std::string& lamactl,
                   const std::vector<std::string>& args, int cpu) {
  // The child inherits the spawning thread's CPU set.
  const std::vector<int> mine = allowed_cpus();
  if (cpu >= 0) pin_to({cpu});
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) throw sys_error("pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], 2);

  std::vector<std::string> argv_s = {lamactl, "serve", "--listen",
                                     "tcp:127.0.0.1:0"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, lamactl.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (cpu >= 0) pin_to(mine);
  ::close(pipefd[1]);
  err_fd_ = pipefd[0];
  if (rc != 0) {
    pid_ = -1;
    errno = rc;
    throw sys_error("spawn " + lamactl);
  }

  // "lamactl: listening on tcp:127.0.0.1:<port>" on stderr.
  std::string text;
  const std::uint64_t deadline = now_ns() + 20'000'000'000ULL;
  while (port_ == 0) {
    pollfd p{err_fd_, POLLIN, 0};
    const int left_ms = static_cast<int>((deadline - std::min(deadline, now_ns())) / 1'000'000);
    if (left_ms <= 0 || ::poll(&p, 1, left_ms) <= 0) {
      throw std::runtime_error("server did not report its port: " + text);
    }
    char chunk[512];
    const ssize_t n = ::read(err_fd_, chunk, sizeof(chunk));
    if (n <= 0) throw std::runtime_error("server exited at start: " + text);
    text.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = text.find("listening on tcp:");
    const std::size_t eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      const std::string addr = text.substr(at, eol - at);
      port_ = std::stoi(addr.substr(addr.rfind(':') + 1));
    }
  }
}

void Server::reap(int first_signal, int grace_ms) {
  if (pid_ <= 0) return;
  ::kill(pid_, first_signal);
  int status = 0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(grace_ms) * 1'000'000ULL;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  port_ = 0;
  if (err_fd_ >= 0) {
    ::close(err_fd_);
    err_fd_ = -1;
  }
}

void Server::stop() { reap(SIGTERM, 10'000); }

void Server::kill_now() { reap(SIGKILL, 10'000); }

Server::Usage Server::usage() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) throw std::runtime_error("no /proc stat");
  // Fields 10 (minflt), 14 (utime) and 15 (stime); field 3 follows ") ".
  std::istringstream fields(text.substr(close_paren + 2));
  std::array<std::string, 16> f{};
  for (int i = 3; i <= 15; ++i) fields >> f[i];
  const double tick_us = 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return {std::stod(f[14]) * tick_us, std::stod(f[15]) * tick_us, std::stod(f[10])};
}

long Server::peak_rss_kib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  throw std::runtime_error("no VmHWM for the server");
}

// ------------------------------------------------------------------ Conn

Conn::~Conn() { close(); }

void Conn::open(int port, bool binary) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw sys_error("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::runtime_error e = sys_error("connect");
    close();
    throw e;
  }
  binary_ = binary;
  buf_.clear();
  head_ = 0;
}

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Conn::send_all(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw sys_error("send");
    off += static_cast<std::size_t>(n);
  }
  bytes_out += data.size();
}

void Conn::fill() {
  if (head_ > 0 && head_ == buf_.size()) {
    buf_.clear();
    head_ = 0;
  }
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw sys_error("recv");
    if (n == 0) throw std::runtime_error("server closed the connection");
    buf_.append(chunk, static_cast<std::size_t>(n));
    bytes_in += static_cast<std::uint64_t>(n);
    return;
  }
}

std::string Conn::exchange(const std::string& request, int lines) {
  send_all(request);
  if (binary_) {
    namespace svc = lama::svc;
    for (;;) {
      svc::WireFrame frame;
      std::size_t consumed = 0;
      std::string error;
      const std::string_view rest = std::string_view(buf_).substr(head_);
      const svc::FrameStatus status = svc::decode_frame(rest, frame, consumed, error);
      if (status == svc::FrameStatus::kBad) throw std::runtime_error("response frame: " + error);
      if (status == svc::FrameStatus::kNeedMore) {
        fill();
        continue;
      }
      std::string out(frame.payload);
      head_ += consumed;
      if (!out.empty() && out.back() == '\n') out.pop_back();
      return out;
    }
  }
  std::size_t scan = head_;
  int seen = 0;
  for (;;) {
    const std::size_t eol = buf_.find('\n', scan);
    if (eol == std::string::npos) {
      const std::size_t off = scan - head_;
      fill();
      scan = head_ + off;
      continue;
    }
    scan = eol + 1;
    if (++seen == lines) break;
  }
  std::string out = buf_.substr(head_, scan - head_ - 1);
  head_ = scan;
  return out;
}

std::string Conn::call(const std::string& line) { return exchange(line + "\n"); }

}  // namespace pb
