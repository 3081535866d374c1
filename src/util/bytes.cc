#include "util/bytes.h"

#include <fstream>

namespace dblsh::util {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("no file at " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot stat " + path);
  in.seekg(0, std::ios::beg);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IoError("short read of " + path);
  }
  return bytes;
}

}  // namespace dblsh::util
