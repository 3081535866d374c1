#ifndef DBLSH_DURABILITY_FORMAT_H_
#define DBLSH_DURABILITY_FORMAT_H_

#include "util/bytes.h"

/// The durability layer's names for the shared byte helpers (util/bytes.h):
/// its WAL, snapshot and manifest files are checksummed and parsed with the
/// same code as the DbLsh index file and the vector-store codec.
namespace dblsh::durability {

using util::AppendBytes;
using util::AppendPod;
using util::Fnv1a64;
using util::PodReader;

}  // namespace dblsh::durability

#endif  // DBLSH_DURABILITY_FORMAT_H_
