#include "core/index_factory.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "util/text.h"

namespace dblsh {
namespace {

using text::Lower;
using text::Trim;

/// Lookup key for method names: upper-case, '-'/'_'/' ' stripped, so user
/// spellings like "db-lsh", "DB_LSH" and "DBLSH" all resolve.
std::string CanonicalName(const std::string& name) {
  std::string canonical;
  canonical.reserve(name.size());
  for (const char ch : name) {
    if (ch == '-' || ch == '_' || ch == ' ') continue;
    canonical.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(ch))));
  }
  return canonical;
}

struct Entry {
  std::string display_name;
  std::string description;
  IndexFactory::Builder builder;
};

/// Keyed by canonical name. Function-local static so registration from any
/// translation unit's static initializers is order-safe.
std::map<std::string, Entry>& Registry() {
  static auto* registry = new std::map<std::string, Entry>();
  return *registry;
}

}  // namespace

Result<IndexFactory::Spec> IndexFactory::Spec::Parse(const std::string& text) {
  Spec spec;
  size_t pos = 0;
  bool first = true;
  while (pos <= text.size()) {
    const size_t comma = text.find(',', pos);
    const std::string token =
        Trim(text.substr(pos, comma == std::string::npos ? std::string::npos
                                                         : comma - pos));
    pos = (comma == std::string::npos) ? text.size() + 1 : comma + 1;
    if (first) {
      if (token.empty()) {
        return Status::InvalidArgument(
            "index spec must start with a method name, e.g. "
            "\"DB-LSH,c=1.5\"");
      }
      if (token.find('=') != std::string::npos) {
        return Status::InvalidArgument(
            "index spec must start with a method name, got key=value "
            "token \"" +
            token + "\"");
      }
      spec.name_ = token;
      first = false;
      continue;
    }
    if (token.empty()) {
      return Status::InvalidArgument("empty token in index spec \"" + text +
                                     "\"");
    }
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected key=value, got \"" + token +
                                     "\" in index spec \"" + text + "\"");
    }
    const std::string key = Lower(Trim(token.substr(0, eq)));
    const std::string value = Trim(token.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("empty key in index spec \"" + text +
                                     "\"");
    }
    if (value.empty()) {
      return Status::InvalidArgument("empty value for key \"" + key +
                                     "\" in index spec \"" + text + "\"");
    }
    if (!spec.values_.emplace(key, value).second) {
      return Status::InvalidArgument("duplicate key \"" + key +
                                     "\" in index spec \"" + text + "\"");
    }
  }
  return spec;
}

void IndexFactory::Register(const std::string& name,
                            const std::string& description, Builder builder) {
  Registry()[CanonicalName(name)] =
      Entry{name, description, std::move(builder)};
}

Result<std::unique_ptr<AnnIndex>> IndexFactory::Make(
    const std::string& spec_text) {
  auto parsed = Spec::Parse(spec_text);
  if (!parsed.ok()) return parsed.status();
  const Spec& spec = parsed.value();

  const auto& registry = Registry();
  const auto it = registry.find(CanonicalName(spec.name()));
  if (it == registry.end()) {
    std::string known;
    for (const auto& [_, entry] : registry) {
      if (!known.empty()) known += ", ";
      known += entry.display_name;
    }
    return Status::NotFound("unknown index method \"" + spec.name() +
                            "\"; registered methods: " + known);
  }
  return it->second.builder(spec);
}

std::vector<std::string> IndexFactory::ListMethods() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const auto& [_, entry] : Registry()) {
    names.push_back(entry.display_name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::string> IndexFactory::Describe(const std::string& name) {
  const auto& registry = Registry();
  const auto it = registry.find(CanonicalName(name));
  if (it == registry.end()) {
    return Status::NotFound("unknown index method \"" + name + "\"");
  }
  return it->second.description;
}

const std::string* SpecReader::Raw(const std::string& key) {
  consumed_.insert(key);
  const auto it = spec_.values().find(key);
  return it == spec_.values().end() ? nullptr : &it->second;
}

void SpecReader::RecordError(const std::string& key, const char* expected) {
  if (!error_.empty()) return;
  error_ = "key \"" + key + "\" of method \"" + spec_.name() + "\" expects " +
           expected + ", got \"" + spec_.values().at(key) + "\"";
}

void SpecReader::Key(const std::string& key, double* out) {
  const std::string* raw = Raw(key);
  if (raw == nullptr) return;
  char* end = nullptr;
  const double value = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str() || *end != '\0' || !std::isfinite(value)) {
    RecordError(key, "a finite number");
    return;
  }
  *out = value;
}

void SpecReader::Key(const std::string& key, bool* out) {
  const std::string* raw = Raw(key);
  if (raw == nullptr) return;
  const std::string value = Lower(*raw);
  if (value == "1" || value == "true" || value == "yes") {
    *out = true;
  } else if (value == "0" || value == "false" || value == "no") {
    *out = false;
  } else {
    RecordError(key, "a boolean (0/1/true/false)");
  }
}

void SpecReader::Key(const std::string& key, std::string* out) {
  const std::string* raw = Raw(key);
  if (raw != nullptr) *out = *raw;
}

bool SpecReader::ConsumeUnsigned(const std::string& key,
                                 unsigned long long max,
                                 unsigned long long* out) {
  const std::string* raw = Raw(key);
  if (raw == nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(raw->c_str(), &end, 10);
  if (end == raw->c_str() || *end != '\0' || raw->front() == '-') {
    RecordError(key, "a non-negative integer");
    return false;
  }
  // strtoull saturates at ULLONG_MAX with ERANGE on overflow.
  if (errno == ERANGE || value > max) {
    RecordError(key,
                ("an integer no greater than " + std::to_string(max)).c_str());
    return false;
  }
  *out = value;
  return true;
}

Status SpecReader::Finish() {
  if (!error_.empty()) return Status::InvalidArgument(error_);
  for (const auto& [key, _] : spec_.values()) {
    if (consumed_.count(key) == 0) {
      return Status::InvalidArgument("method \"" + spec_.name() +
                                     "\" does not accept key \"" + key +
                                     "\"");
    }
  }
  return Status::OK();
}

}  // namespace dblsh
