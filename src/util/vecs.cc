#include "util/vecs.h"

#include <fstream>

namespace dblsh::util {

namespace {

// Opens a vecs file positioned at its start and reports its size, so each
// record's claimed length can be checked against the bytes left.
Status OpenVecs(const std::string& path, std::ifstream* in, uint64_t* size) {
  in->open(path, std::ios::binary | std::ios::ate);
  if (!*in) return Status::IoError("vecs: cannot open " + path);
  *size = static_cast<uint64_t>(in->tellg());
  in->seekg(0, std::ios::beg);
  return Status::OK();
}

// Validates the header `d` of vector `index`, with `left` bytes of the file
// after it: positive, equal to `*dim` once the first vector set it, and no
// longer than what is left — checked before anything is allocated, so a
// lying header cannot drive a huge allocation.
template <typename T>
Status CheckRecord(int32_t d, size_t index, uint64_t left, size_t* dim,
                   const std::string& path) {
  if (d <= 0) {
    return Status::Corruption("vecs: non-positive dimension " +
                              std::to_string(d) + " in " + path);
  }
  if (*dim != 0 && static_cast<size_t>(d) != *dim) {
    return Status::Corruption(
        "vecs: vector " + std::to_string(index) + " has dimension " +
        std::to_string(d) + ", expected " + std::to_string(*dim) + " in " +
        path);
  }
  if (static_cast<uint64_t>(d) * sizeof(T) > left) {
    return Status::Corruption("vecs: truncated vector " +
                              std::to_string(index) + " in " + path);
  }
  *dim = static_cast<size_t>(d);
  return Status::OK();
}

// Shared scan loop: every vecs flavor is `int32 d` + d components of
// sizeof(T) bytes, repeated to end of file.
template <typename T, typename Data>
Result<Data> ReadVecsFile(const std::string& path, size_t max_vectors) {
  std::ifstream in;
  uint64_t left = 0;
  DBLSH_RETURN_IF_ERROR(OpenVecs(path, &in, &left));
  Data data;
  size_t read_vectors = 0;
  while (max_vectors == 0 || read_vectors < max_vectors) {
    int32_t d = 0;
    if (!in.read(reinterpret_cast<char*>(&d), sizeof(d))) {
      if (in.eof() && in.gcount() == 0) break;  // clean end between vectors
      return Status::Corruption("vecs: truncated header in " + path);
    }
    left -= sizeof(d);
    DBLSH_RETURN_IF_ERROR(
        CheckRecord<T>(d, read_vectors, left, &data.dim, path));
    left -= data.dim * sizeof(T);
    const size_t offset = data.values.size();
    data.values.resize(offset + data.dim);
    if (!in.read(reinterpret_cast<char*>(data.values.data() + offset),
                 static_cast<std::streamsize>(data.dim * sizeof(T)))) {
      return Status::Corruption("vecs: truncated vector " +
                                std::to_string(read_vectors) + " in " + path);
    }
    ++read_vectors;
  }
  return data;
}

// Shared streaming loop: identical header/truncation validation to
// ReadVecsFile, but holds only one row (as T, then widened to float for
// the visitor) instead of the whole file.
template <typename T>
Result<size_t> StreamVecsFile(const std::string& path,
                              const VecsRowVisitor& visit,
                              size_t max_vectors) {
  std::ifstream in;
  uint64_t left = 0;
  DBLSH_RETURN_IF_ERROR(OpenVecs(path, &in, &left));
  std::vector<T> raw;
  std::vector<float> row;
  size_t dim = 0;
  size_t read_vectors = 0;
  while (max_vectors == 0 || read_vectors < max_vectors) {
    int32_t d = 0;
    if (!in.read(reinterpret_cast<char*>(&d), sizeof(d))) {
      if (in.eof() && in.gcount() == 0) break;  // clean end between vectors
      return Status::Corruption("vecs: truncated header in " + path);
    }
    left -= sizeof(d);
    DBLSH_RETURN_IF_ERROR(CheckRecord<T>(d, read_vectors, left, &dim, path));
    left -= dim * sizeof(T);
    raw.resize(dim);
    row.resize(dim);
    if (!in.read(reinterpret_cast<char*>(raw.data()),
                 static_cast<std::streamsize>(dim * sizeof(T)))) {
      return Status::Corruption("vecs: truncated vector " +
                                std::to_string(read_vectors) + " in " + path);
    }
    for (size_t j = 0; j < dim; ++j) row[j] = static_cast<float>(raw[j]);
    visit(read_vectors, row.data(), dim);
    ++read_vectors;
  }
  return read_vectors;
}

}  // namespace

Result<FvecsData> ReadFvecs(const std::string& path, size_t max_vectors) {
  return ReadVecsFile<float, FvecsData>(path, max_vectors);
}

Result<BvecsData> ReadBvecs(const std::string& path, size_t max_vectors) {
  return ReadVecsFile<uint8_t, BvecsData>(path, max_vectors);
}

Result<IvecsData> ReadIvecs(const std::string& path, size_t max_vectors) {
  return ReadVecsFile<int32_t, IvecsData>(path, max_vectors);
}

Result<FvecsData> ReadBvecsAsFloat(const std::string& path,
                                   size_t max_vectors) {
  auto raw = ReadVecsFile<uint8_t, BvecsData>(path, max_vectors);
  if (!raw.ok()) return raw.status();
  FvecsData data;
  data.dim = raw.value().dim;
  data.values.assign(raw.value().values.begin(), raw.value().values.end());
  return data;
}

Result<size_t> StreamFvecs(const std::string& path,
                           const VecsRowVisitor& visit, size_t max_vectors) {
  return StreamVecsFile<float>(path, visit, max_vectors);
}

Result<size_t> StreamBvecsAsFloat(const std::string& path,
                                  const VecsRowVisitor& visit,
                                  size_t max_vectors) {
  return StreamVecsFile<uint8_t>(path, visit, max_vectors);
}

}  // namespace dblsh::util
