#include "io/fsio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/rng.hpp"

namespace adaparse::io {
namespace {

std::atomic<std::uint64_t> fsync_count{0};

/// Closes a descriptor on every path out of its scope, exceptions included.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// fsync with EINTR retry; counts every successful sync for the test hook.
bool fsync_fd(int fd) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc == 0) fsync_count.fetch_add(1, std::memory_order_relaxed);
  return rc == 0;
}

bool write_fully(int fd, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// Syncs the directory holding `path`, making the rename itself durable.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;  // not fatal: the data itself is already synced
  fsync_fd(fd);
  ::close(fd);
}

}  // namespace

std::optional<std::string> read_file(const std::string& path) {
  const ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) return std::nullopt;
  // The size is only a hint: /proc files report 0, and a journal may grow
  // while it is read, so the loop reads to EOF. One spare byte lets the
  // read that finds EOF run without growing a file read in one go.
  struct stat info {};
  const std::size_t hint =
      ::fstat(fd.get(), &info) == 0 && info.st_size > 0
          ? static_cast<std::size_t>(info.st_size)
          : 0;
  std::string bytes(std::max<std::size_t>(hint + 1, 4096), '\0');
  std::size_t size = 0;
  for (;;) {
    if (size == bytes.size()) bytes.resize(2 * bytes.size());
    const ssize_t n =
        ::read(fd.get(), bytes.data() + size, bytes.size() - size);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int error = errno;
      throw std::runtime_error("read_file: cannot read " + path + ": " +
                               std::strerror(error));
    }
    if (n == 0) break;
    size += static_cast<std::size_t>(n);
  }
  bytes.resize(size);
  return bytes;
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  // Unique per-call temp name: two threads atomically writing the same
  // path (e.g. a primary attempt and its hedge both re-staging one corrupt
  // shard) must not race on a shared temp file — whoever renames last
  // wins, and with deterministic content both outcomes are identical. The
  // pid keeps forked processes apart: they inherit the counter's value.
  static std::atomic<unsigned long> sequence{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1) + 1);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw std::runtime_error("write_file_atomic: cannot open " + tmp);
  }
  // The ordering that makes rename a true commit point: data must be on
  // disk *before* the new name appears (fsync the temp file), and the name
  // swap itself must survive a crash (fsync the parent directory after the
  // rename). Skipping either step lets a power cut leave the final path
  // referring to an empty or half-written file.
  if (!write_fully(fd, bytes) || !fsync_fd(fd)) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: write failed " + tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: rename failed " + path);
  }
  fsync_parent_dir(path);
}

std::uint64_t fsync_count_for_testing() {
  return fsync_count.load(std::memory_order_relaxed);
}

std::uint64_t fnv1a(std::string_view bytes) { return util::hash64(bytes); }

}  // namespace adaparse::io
