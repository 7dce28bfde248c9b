#include "mhd/store/file_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "mhd/store/store_errors.h"

namespace mhd {

namespace fs = std::filesystem;

namespace {

/// Temp files from interrupted atomic puts carry this suffix; object names
/// are hex digests and can never collide with it.
constexpr const char* kTmpSuffix = ".tmp";

bool is_tmp(const fs::path& p) { return p.extension() == kTmpSuffix; }

/// Writes `data` and verifies both the write and the close took: a short
/// write (ENOSPC, quota) must surface as an error, never as a silently
/// truncated object.
void write_all_or_throw(const fs::path& p, ByteSpan data,
                        std::ios::openmode mode) {
  std::ofstream out(p, std::ios::binary | mode);
  if (!out) throw BackendIoError("FileBackend: cannot open " + p.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw BackendIoError("FileBackend: short write to " + p.string());
  out.close();
  if (out.fail()) {
    throw BackendIoError("FileBackend: close failed for " + p.string());
  }
}

BackendIoError io_error(const char* what, const fs::path& p, int err) {
  return BackendIoError("FileBackend: " + std::string(what) + " " +
                        p.string() + ": " + std::strerror(err));
}

/// Reads the bytes [offset, offset + length) of the object file `p`, or
/// everything from `offset` on when `length` is empty. Absent (ENOENT),
/// or a range past the end, is nullopt; anything else that stops the read
/// — a directory or other non-regular file at the path, an open, stat or
/// read error, a file that shrinks mid-read — throws BackendIoError.
std::optional<ByteVec> read_object(const fs::path& p, std::uint64_t offset,
                                   std::optional<std::uint64_t> length) {
  const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw io_error("cannot open", p, errno);
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw io_error("cannot stat", p, errno);
  if (!S_ISREG(st.st_mode)) {
    throw BackendIoError("FileBackend: not a regular file: " + p.string());
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  // Checked as two comparisons: `offset + length` can wrap u64.
  if (offset > size) return std::nullopt;
  const std::uint64_t n = length.value_or(size - offset);
  if (n > size - offset) return std::nullopt;
  ByteVec out(static_cast<std::size_t>(n));
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t got =
        ::pread(fd, out.data() + done, out.size() - done,
                static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) throw io_error("cannot read", p, errno);
    if (got == 0) {
      throw BackendIoError("FileBackend: short read of " + p.string());
    }
    done += static_cast<std::size_t>(got);
  }
  return out;
}

}  // namespace

FileBackend::FileBackend(fs::path root) : root_(std::move(root)) {
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    fs::create_directories(root_ / ns_name(ns));
    // Adopt pre-existing content (e.g. resuming a backup repository).
    // Orphaned temp files are debris from an interrupted atomic put: the
    // rename never happened, so the old object (if any) is still intact.
    std::vector<fs::path> stale_tmps;
    for (const auto& entry : fs::directory_iterator(root_ / ns_name(ns))) {
      if (!entry.is_regular_file()) continue;
      if (is_tmp(entry.path())) {
        stale_tmps.push_back(entry.path());
        continue;
      }
      ++counts_[i];
      bytes_[i] += entry.file_size();
    }
    for (const auto& tmp : stale_tmps) fs::remove(tmp);
  }
}

fs::path FileBackend::path_for(Ns ns, const std::string& name) const {
  return root_ / ns_name(ns) / name;
}

void FileBackend::put(Ns ns, const std::string& name, ByteSpan data) {
  const fs::path p = path_for(ns, name);
  const fs::path tmp = p.string() + kTmpSuffix;
  const bool existed = fs::exists(p);
  const std::uint64_t old_size = existed ? fs::file_size(p) : 0;
  // Atomic replace: write the new bytes beside the object, then rename
  // over it. A crash mid-put leaves either the old object or the new one,
  // never a half-written mix; the stale .tmp is swept on reopen.
  try {
    write_all_or_throw(tmp, data, std::ios::trunc);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
  std::error_code ec;
  fs::rename(tmp, p, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw BackendIoError("FileBackend: rename failed for " + p.string());
  }
  const int i = static_cast<int>(ns);
  if (!existed) ++counts_[i];
  bytes_[i] += data.size();
  bytes_[i] -= old_size;
}

void FileBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  const fs::path p = path_for(ns, name);
  const bool existed = fs::exists(p);
  const std::uint64_t old_size = existed ? fs::file_size(p) : 0;
  try {
    write_all_or_throw(p, data, std::ios::app);
  } catch (...) {
    // A failed append may have landed a prefix; resync the counters from
    // the filesystem so accounting stays truthful, then surface the error
    // (the framing layer makes the partial tail detectable).
    const int i = static_cast<int>(ns);
    std::error_code ec;
    const bool exists_now = fs::exists(p, ec) && !ec;
    const std::uint64_t new_size = exists_now ? fs::file_size(p, ec) : 0;
    if (!existed && exists_now) ++counts_[i];
    bytes_[i] += new_size;
    bytes_[i] -= old_size;
    throw;
  }
  const int i = static_cast<int>(ns);
  if (!existed) ++counts_[i];
  bytes_[i] += data.size();
}

std::optional<ByteVec> FileBackend::get(Ns ns, const std::string& name) const {
  return read_object(path_for(ns, name), 0, std::nullopt);
}

std::optional<ByteVec> FileBackend::get_range(Ns ns, const std::string& name,
                                              std::uint64_t offset,
                                              std::uint64_t length) const {
  return read_object(path_for(ns, name), offset, length);
}

bool FileBackend::exists(Ns ns, const std::string& name) const {
  return fs::exists(path_for(ns, name));
}

bool FileBackend::remove(Ns ns, const std::string& name) {
  const fs::path p = path_for(ns, name);
  if (!fs::exists(p)) return false;
  const std::uint64_t size = fs::file_size(p);
  fs::remove(p);
  const int i = static_cast<int>(ns);
  --counts_[i];
  bytes_[i] -= size;
  return true;
}

std::uint64_t FileBackend::object_count(Ns ns) const {
  return counts_[static_cast<int>(ns)];
}

std::uint64_t FileBackend::content_bytes(Ns ns) const {
  return bytes_[static_cast<int>(ns)];
}

std::vector<std::string> FileBackend::list(Ns ns) const {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(root_ / ns_name(ns))) {
    if (!entry.is_regular_file() || is_tmp(entry.path())) continue;
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace mhd
