// The benchmark's side of the sockets: the server as a child process, and a
// blocking client connection speaking either text lines or the binary frame
// format (svc/wire) over loopback TCP.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

// Steady-clock nanoseconds.
std::uint64_t now_ns();

// The CPUs this process may run on.
std::vector<int> allowed_cpus();
// Restricts the calling thread, and threads and processes it starts later,
// to `cpus`.
void pin_to(const std::vector<int>& cpus);

class Server {
 public:
  Server() = default;
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Spawns `lamactl serve --listen tcp:127.0.0.1:0 <args>` on CPU `cpu`
  // (-1: anywhere) and waits for it to report its port. Throws
  // std::runtime_error on failure.
  void start(const std::string& lamactl, const std::vector<std::string>& args,
             int cpu);
  // SIGTERM, then wait (SIGKILL after a grace period). Idempotent.
  void stop();
  // SIGKILL and wait: for set-up repetitions whose state is thrown away.
  void kill_now();

  [[nodiscard]] int port() const { return port_; }
  // CPU time and minor page faults of the whole process so far
  // (/proc/<pid>/stat).
  struct Usage {
    double user_us = 0;
    double sys_us = 0;
    double minor_faults = 0;
  };
  [[nodiscard]] Usage usage() const;
  // VmHWM in KiB (/proc/<pid>/status).
  [[nodiscard]] long peak_rss_kib() const;

 private:
  void reap(int first_signal, int grace_ms);

  pid_t pid_ = -1;
  int err_fd_ = -1;  // the child's stderr, drained on stop
  int port_ = 0;
};

class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  // Connects to 127.0.0.1:port. Throws std::runtime_error.
  void open(int port, bool binary);
  void close();
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  // Sends `request` verbatim (a text line ending in '\n', or an encoded
  // frame) and reads the answer: `lines` text lines, or one frame whose
  // payload (the text answer) is returned. Throws std::runtime_error on a
  // transport failure.
  std::string exchange(const std::string& request, int lines = 1);

  // Text-line convenience: appends '\n' and returns the first line without
  // its newline.
  std::string call(const std::string& line);

  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;

 private:
  void send_all(const std::string& data);
  void fill();  // one read() into buf_

  int fd_ = -1;
  bool binary_ = false;
  std::string buf_;
  std::size_t head_ = 0;
};

}  // namespace pb
