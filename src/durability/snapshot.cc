#include "durability/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "durability/fail_point.h"
#include "durability/format.h"

namespace dblsh::durability {
namespace {

constexpr char kSnapMagic[8] = {'D', 'B', 'L', 'S', 'H', 'S', 'N', 'P'};
constexpr char kManifestMagic[8] = {'D', 'B', 'L', 'S', 'H', 'M', 'A', 'N'};
constexpr uint32_t kSnapVersion = 1;
constexpr uint32_t kManifestVersion = 1;

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// Writes `bytes` to `path` via `.tmp` + rename + fsync. When the armed
/// fail point fires, only the armed prefix reaches the tmp file and the
/// rename never happens — the published file (if any) stays intact.
Status AtomicWrite(const std::string& path, const std::vector<uint8_t>& bytes,
                   const char* fail_point) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError(Errno("snapshot: open", tmp));

  size_t keep = 0;
  const bool crash = FailPoints::Instance().Hit(fail_point, &keep);
  const size_t to_write = crash ? std::min(keep, bytes.size()) : bytes.size();
  size_t written = 0;
  while (written < to_write) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, to_write - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError(Errno("snapshot: write", tmp));
    }
    written += static_cast<size_t>(n);
  }
  if (crash) {
    ::fsync(fd);
    ::close(fd);
    return Status::IoError("snapshot: injected crash writing " + tmp);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError(Errno("snapshot: fsync", tmp));
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError(Errno("snapshot: rename", path));
  }
  return Status::OK();
}

}  // namespace

std::string SnapshotPath(const std::string& dir, size_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".snap";
}

std::string WalPath(const std::string& dir, size_t shard, uint64_t seq) {
  return dir + "/shard-" + std::to_string(shard) + ".wal." +
         std::to_string(seq);
}

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("durability: cannot create directory " + dir +
                           ": " + ec.message());
  }
  return Status::OK();
}

std::vector<uint64_t> ListWalSegments(const std::string& dir, size_t shard) {
  std::vector<uint64_t> seqs;
  const std::string prefix = "shard-" + std::to_string(shard) + ".wal.";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string suffix = name.substr(prefix.size());
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    seqs.push_back(std::strtoull(suffix.c_str(), nullptr, 10));
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

Status SaveShardSnapshot(const std::string& path, const ShardSnapshot& snap) {
  std::vector<uint8_t> out;
  out.reserve(64 + snap.body.size());
  AppendBytes(&out, kSnapMagic, sizeof(kSnapMagic));
  AppendPod(&out, kSnapVersion);
  AppendPod(&out, snap.store.kind);
  AppendPod(&out, snap.store.rows);
  AppendPod(&out, snap.store.dim);
  AppendPod(&out, snap.lsn);
  AppendPod(&out, static_cast<uint8_t>(snap.store.trained ? 1 : 0));
  AppendPod(&out, snap.store.free_count);
  AppendPod(&out, Fnv1a64(snap.body.data(), snap.body.size()));
  AppendBytes(&out, snap.body.data(), snap.body.size());
  return AtomicWrite(path, out, kFailSnapshotWrite);
}

Result<ShardSnapshot> LoadShardSnapshot(const std::string& path) {
  auto bytes_or = util::ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  std::vector<uint8_t> bytes = std::move(bytes_or).value();

  PodReader reader(bytes.data(), bytes.size());
  char magic[8];
  uint32_t version = 0;
  ShardSnapshot snap;
  uint8_t trained = 0;
  uint64_t body_sum = 0;
  if (!reader.ReadBytes(magic, sizeof(magic)) || !reader.Read(&version) ||
      !reader.Read(&snap.store.kind) || !reader.Read(&snap.store.rows) ||
      !reader.Read(&snap.store.dim) || !reader.Read(&snap.lsn) ||
      !reader.Read(&trained) || !reader.Read(&snap.store.free_count) ||
      !reader.Read(&body_sum)) {
    return Status::Corruption("snapshot: truncated header " + path);
  }
  if (std::memcmp(magic, kSnapMagic, sizeof(magic)) != 0) {
    return Status::Corruption("snapshot: bad magic " + path);
  }
  if (version != kSnapVersion) {
    return Status::Corruption("snapshot: unsupported version " +
                              std::to_string(version) + " " + path);
  }
  snap.store.trained = trained != 0;
  bytes.erase(bytes.begin(),
              bytes.begin() + static_cast<ptrdiff_t>(reader.position()));
  snap.body = std::move(bytes);
  if (body_sum != Fnv1a64(snap.body.data(), snap.body.size())) {
    return Status::Corruption("snapshot: body checksum mismatch " + path);
  }
  return snap;
}

Status SaveManifest(const std::string& dir, const Manifest& manifest) {
  std::vector<uint8_t> out;
  AppendBytes(&out, kManifestMagic, sizeof(kManifestMagic));
  AppendPod(&out, kManifestVersion);
  AppendPod(&out, manifest.shards);
  AppendPod(&out, manifest.dim);
  AppendPod(&out, manifest.storage);
  AppendPod(&out, manifest.wal_seq);
  AppendPod(&out, manifest.checkpoint_lsn);
  AppendPod(&out, Fnv1a64(out.data(), out.size()));
  return AtomicWrite(ManifestPath(dir), out, kFailManifestWrite);
}

Result<Manifest> LoadManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  auto bytes_or = util::ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::vector<uint8_t> bytes = std::move(bytes_or).value();

  PodReader reader(bytes.data(), bytes.size());
  char magic[8];
  uint32_t version = 0;
  Manifest manifest;
  uint64_t sum = 0;
  if (!reader.ReadBytes(magic, sizeof(magic)) || !reader.Read(&version) ||
      !reader.Read(&manifest.shards) || !reader.Read(&manifest.dim) ||
      !reader.Read(&manifest.storage) || !reader.Read(&manifest.wal_seq) ||
      !reader.Read(&manifest.checkpoint_lsn) || !reader.Read(&sum)) {
    return Status::Corruption("manifest: truncated " + path);
  }
  if (std::memcmp(magic, kManifestMagic, sizeof(magic)) != 0) {
    return Status::Corruption("manifest: bad magic " + path);
  }
  if (sum != Fnv1a64(bytes.data(), bytes.size() - 8) ||
      reader.remaining() != 0) {
    return Status::Corruption("manifest: checksum mismatch " + path);
  }
  if (version != kManifestVersion) {
    return Status::Corruption("manifest: unsupported version " + path);
  }
  if (manifest.shards == 0 || manifest.dim == 0) {
    return Status::Corruption("manifest: invalid geometry " + path);
  }
  return manifest;
}

}  // namespace dblsh::durability
