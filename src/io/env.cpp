#include "io/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace hdd::io {

namespace fs = std::filesystem;

const char* error_class_name(ErrorClass c) {
  switch (c) {
    case ErrorClass::kNone: return "none";
    case ErrorClass::kTransient: return "transient";
    case ErrorClass::kPermanent: return "permanent";
    case ErrorClass::kCorrupting: return "corrupting";
  }
  return "unknown";
}

IoStatus IoStatus::from_errno(const std::string& op, const std::string& path,
                              int err) {
  // Classification: transient errors are resource pressure the next attempt
  // may not see; everything else (no space, no permission, no file, media
  // gone read-only) stays failed no matter how often it is retried.
  ErrorClass cls;
  switch (err) {
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case EBUSY:
    case EIO:
    case ENFILE:
    case EMFILE:
    case ENOMEM:
      cls = ErrorClass::kTransient;
      break;
    default:
      cls = ErrorClass::kPermanent;
      break;
  }
  return {cls, err, op + " " + path + ": " + std::strerror(err)};
}

File::~File() = default;
Env::~Env() = default;

IoStatus Env::write_file(const std::string& path, std::string_view data,
                         bool sync) {
  std::unique_ptr<File> f;
  if (auto s = new_append_file(path, /*truncate=*/true, f); !s.ok()) return s;
  if (auto s = f->append(data); !s.ok()) return s;
  if (sync) {
    if (auto s = f->sync(); !s.ok()) return s;
  }
  return f->close();
}

namespace {

// EINTR-safe open(2): a signal delivered during a checkpoint must not
// masquerade as an I/O fault.
int open_retry(const char* path, int flags, mode_t mode = 0644) {
  int fd;
  do {
    fd = ::open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

int fsync_retry(int fd) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

int close_retry(int fd) {
  // POSIX leaves the fd state unspecified after EINTR from close(2); on
  // Linux the descriptor is gone either way, so never retry the close —
  // but do not report EINTR as a failure.
  const int rc = ::close(fd);
  return (rc != 0 && errno == EINTR) ? 0 : rc;
}

// Append-only file over a raw descriptor, unbuffered: every append is
// one write_all, so a failure is reported by the call whose bytes failed.
class PosixFile final : public File {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override { (void)close(); }

  IoStatus append(std::string_view data) override {
    if (fd_ < 0) return closed("append");
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return IoStatus::from_errno("write", path_, errno);
      }
      off += static_cast<std::size_t>(n);
    }
    return IoStatus::success();
  }

  IoStatus sync() override {
    if (fd_ < 0) return closed("fsync");
    if (fsync_retry(fd_) != 0) {
      return IoStatus::from_errno("fsync", path_, errno);
    }
    return IoStatus::success();
  }

  IoStatus close() override {
    if (fd_ < 0) return IoStatus::success();
    const int fd = fd_;
    fd_ = -1;
    if (close_retry(fd) != 0) return IoStatus::from_errno("close", path_, errno);
    return IoStatus::success();
  }

 private:
  IoStatus closed(const char* op) const {
    return IoStatus::permanent_error(std::string(op) + " " + path_ +
                                     ": file is closed");
  }

  int fd_;
  std::string path_;
};

class PosixEnv final : public Env {
 public:
  IoStatus new_append_file(const std::string& path, bool truncate,
                           std::unique_ptr<File>& out) override {
    const int flags =
        O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
    const int fd = open_retry(path.c_str(), flags);
    if (fd < 0) return IoStatus::from_errno("open", path, errno);
    out = std::make_unique<PosixFile>(fd, path);
    return IoStatus::success();
  }

  IoStatus read_file(const std::string& path, std::string& out) const override {
    return read_up_to(path, std::string::npos, out);
  }

  IoStatus read_prefix(const std::string& path, std::size_t n,
                       std::string& out) const override {
    return read_up_to(path, n, out);
  }

  IoStatus list_dir(const std::string& dir,
                    std::vector<std::string>& names) const override {
    names.clear();
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return IoStatus::from_errno("opendir", dir, errno);
    while (true) {
      errno = 0;
      const dirent* e = ::readdir(d);
      if (e == nullptr) {
        const int err = errno;
        ::closedir(d);
        if (err != 0) return IoStatus::from_errno("readdir", dir, err);
        return IoStatus::success();
      }
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      struct stat st{};
      const std::string full = (fs::path(dir) / name).string();
      if (::stat(full.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
        names.push_back(name);
      }
    }
  }

  IoStatus create_dirs(const std::string& dir) override {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      return IoStatus::permanent_error("mkdir " + dir + ": " + ec.message(),
                                       ec.value());
    }
    return IoStatus::success();
  }

  IoStatus rename_file(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return IoStatus::from_errno("rename", from + " -> " + to, errno);
    }
    return IoStatus::success();
  }

  IoStatus remove_file(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return IoStatus::from_errno("unlink", path, errno);
    }
    return IoStatus::success();
  }

  IoStatus resize_file(const std::string& path, std::uint64_t size) override {
    int rc;
    do {
      rc = ::truncate(path.c_str(), static_cast<off_t>(size));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) return IoStatus::from_errno("truncate", path, errno);
    return IoStatus::success();
  }

  IoStatus file_size(const std::string& path,
                     std::uint64_t& out) const override {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) {
      return IoStatus::from_errno("stat", path, errno);
    }
    out = static_cast<std::uint64_t>(st.st_size);
    return IoStatus::success();
  }

  bool file_exists(const std::string& path) const override {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
  }

  IoStatus sync_dir(const std::string& dir) override {
    const int fd = open_retry(dir.c_str(), O_RDONLY);
    if (fd < 0) return IoStatus::from_errno("open", dir, errno);
    const int rc = fsync_retry(fd);
    const int err = errno;
    close_retry(fd);
    // Some filesystems refuse to fsync directories; that is not a fault.
    if (rc != 0 && err != EINVAL && err != EBADF) {
      return IoStatus::from_errno("fsync", dir, err);
    }
    return IoStatus::success();
  }

 private:
  IoStatus read_up_to(const std::string& path, std::size_t limit,
                      std::string& out) const {
    out.clear();
    const int fd = open_retry(path.c_str(), O_RDONLY);
    if (fd < 0) return IoStatus::from_errno("open", path, errno);
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      out.reserve(std::min<std::size_t>(
          limit, static_cast<std::size_t>(st.st_size)));
    }
    char buf[1 << 16];
    while (out.size() < limit) {
      const std::size_t want =
          std::min(sizeof buf, limit - out.size());
      const ssize_t n = ::read(fd, buf, want);
      if (n < 0) {
        if (errno == EINTR) continue;
        const auto s = IoStatus::from_errno("read", path, errno);
        close_retry(fd);
        return s;
      }
      if (n == 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    close_retry(fd);
    return IoStatus::success();
  }
};

}  // namespace

Env& Env::posix() {
  static PosixEnv env;
  return env;
}

IoStatus EnvWrapper::new_append_file(const std::string& path, bool truncate,
                                     std::unique_ptr<File>& out) {
  return target_->new_append_file(path, truncate, out);
}
IoStatus EnvWrapper::read_file(const std::string& path,
                               std::string& out) const {
  return target_->read_file(path, out);
}
IoStatus EnvWrapper::read_prefix(const std::string& path, std::size_t n,
                                 std::string& out) const {
  return target_->read_prefix(path, n, out);
}
IoStatus EnvWrapper::list_dir(const std::string& dir,
                              std::vector<std::string>& names) const {
  return target_->list_dir(dir, names);
}
IoStatus EnvWrapper::create_dirs(const std::string& dir) {
  return target_->create_dirs(dir);
}
IoStatus EnvWrapper::rename_file(const std::string& from,
                                 const std::string& to) {
  return target_->rename_file(from, to);
}
IoStatus EnvWrapper::remove_file(const std::string& path) {
  return target_->remove_file(path);
}
IoStatus EnvWrapper::resize_file(const std::string& path, std::uint64_t size) {
  return target_->resize_file(path, size);
}
IoStatus EnvWrapper::file_size(const std::string& path,
                               std::uint64_t& out) const {
  return target_->file_size(path, out);
}
bool EnvWrapper::file_exists(const std::string& path) const {
  return target_->file_exists(path);
}
IoStatus EnvWrapper::sync_dir(const std::string& dir) {
  return target_->sync_dir(dir);
}

}  // namespace hdd::io
