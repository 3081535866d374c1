#ifndef DBLSH_CORE_INDEX_FACTORY_H_
#define DBLSH_CORE_INDEX_FACTORY_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/ann_index.h"
#include "util/status.h"

namespace dblsh {

/// String-keyed registry of every ANN method in the library.
///
///   auto index = IndexFactory::Make("DB-LSH,c=1.5,l=5,t=40");
///   auto pm    = IndexFactory::Make("PM-LSH,c=2,m=8");
///
/// Spec grammar (see README.md):
///
///   spec  := name ( ',' key '=' value )*
///   name  := registered method name, matched case-insensitively and
///            ignoring '-' / '_' ("db-lsh" == "DB-LSH" == "DBLSH")
///   key   := parameter name of the method's params struct (lower-case)
///   value := finite double | unsigned integer | bool (0/1/true/false)
///            | token
///
/// Unknown methods, unknown keys, duplicate keys, and unparsable values all
/// return InvalidArgument instead of silently building a misconfigured
/// index. Methods register themselves from their own translation units via
/// DBLSH_REGISTER_INDEX, so linking a method's object file is all it takes
/// to make it sweepable by name.
class IndexFactory {
 public:
  /// A parsed spec string. Keys are lower-cased; the name keeps the
  /// spelling the user wrote (canonicalized only for lookup).
  class Spec {
   public:
    static Result<Spec> Parse(const std::string& text);

    const std::string& name() const { return name_; }
    const std::map<std::string, std::string>& values() const {
      return values_;
    }

    /// Copy of this spec with `key` removed; lets a builder consume a key
    /// of its own (e.g. FB-LSH's dataset-size hint `n`) before delegating
    /// the rest to a shared param binder.
    Spec WithoutKey(const std::string& key) const {
      Spec copy = *this;
      copy.values_.erase(key);
      return copy;
    }

   private:
    std::string name_;
    std::map<std::string, std::string> values_;
  };

  using Builder =
      std::function<Result<std::unique_ptr<AnnIndex>>(const Spec&)>;

  /// Adds a method to the registry. Called at static-initialization time by
  /// DBLSH_REGISTER_INDEX; re-registering a name replaces the entry (last
  /// one wins, which keeps repeated registration in tests harmless).
  static void Register(const std::string& name,
                       const std::string& description, Builder builder);

  /// Parses `spec_text` and builds the named method with the given
  /// parameter overrides applied on top of its paper defaults.
  static Result<std::unique_ptr<AnnIndex>> Make(const std::string& spec_text);

  /// Display names of every registered method, sorted; drives uniform
  /// method sweeps in the benches and the eval runner.
  static std::vector<std::string> ListMethods();

  /// One-line description of a registered method.
  static Result<std::string> Describe(const std::string& name);
};

/// Typed key consumer used inside factory builders: bind every key the
/// method supports, then Finish() turns unknown keys or unparsable values
/// into an InvalidArgument status.
///
///   PmLshParams p;
///   SpecReader reader(spec);
///   reader.Key("c", &p.c);
///   reader.Key("m", &p.m);
///   DBLSH_RETURN_IF_ERROR(reader.Finish());
class SpecReader {
 public:
  /// Binds to `spec`, which must outlive the reader.
  explicit SpecReader(const IndexFactory::Spec& spec) : spec_(spec) {}

  /// Each Key() overload writes the spec's value for `key` into `out` when
  /// present (leaving the default otherwise) and marks the key consumed;
  /// parse failures are deferred and reported by Finish(). Doubles must be
  /// finite: nan, inf and out-of-range values are parse failures.
  void Key(const std::string& key, double* out);
  /// Boolean keys accept 0/1/true/false.
  void Key(const std::string& key, bool* out);
  /// Raw-token keys (e.g. storage=pq); no parsing beyond lookup.
  void Key(const std::string& key, std::string* out);

  /// Unsigned-integer keys (size_t, uint32_t, ...). A value that does not
  /// fit T is a parse failure, never wrapped. bool and the exact overloads
  /// above take precedence.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && std::is_unsigned_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  void Key(const std::string& key, T* out) {
    unsigned long long value = 0;
    if (ConsumeUnsigned(key, std::numeric_limits<T>::max(), &value)) {
      *out = static_cast<T>(value);
    }
  }

  /// OK when every provided key was consumed and parsed; first offending
  /// key otherwise.
  Status Finish();

 private:
  /// Marks `key` consumed and returns its raw value, or nullptr when the
  /// spec does not set it.
  const std::string* Raw(const std::string& key);
  /// Parses `key`'s value as a decimal integer in [0, max] into `out`;
  /// false when the key is absent or (error recorded) when it does not.
  bool ConsumeUnsigned(const std::string& key, unsigned long long max,
                       unsigned long long* out);
  void RecordError(const std::string& key, const char* expected);

  const IndexFactory::Spec& spec_;
  std::set<std::string> consumed_;
  std::string error_;  ///< first parse error, reported by Finish()
};

namespace factory_internal {

/// Performs the registration as a static-initializer side effect.
struct Registrar {
  Registrar(const char* name, const char* description,
            IndexFactory::Builder builder) {
    IndexFactory::Register(name, description, std::move(builder));
  }
};

}  // namespace factory_internal

/// Registers a method with the factory. Place at namespace scope in the
/// method's translation unit:
///
///   DBLSH_REGISTER_INDEX(kRegisterPmLsh, "PM-LSH",
///                        "PM-LSH (Zheng et al., PVLDB 2020)",
///                        [](const IndexFactory::Spec& spec) { ... });
#define DBLSH_REGISTER_INDEX(var, name, description, ...)                 \
  [[maybe_unused]] static const ::dblsh::factory_internal::Registrar var( \
      name, description, __VA_ARGS__)

}  // namespace dblsh

#endif  // DBLSH_CORE_INDEX_FACTORY_H_
