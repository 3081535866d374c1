#include "baselines/fb_lsh.h"

#include "core/index_factory.h"

namespace dblsh {

// FB-LSH is a DbLsh configured for fixed-grid bucketing, so its factory
// entry layers the spec on top of FbLshDefaultParams. The optional `n` key
// is the dataset-size hint driving the paper's L = 10 vs 12 rule — kept
// here so no caller needs to replicate that default logic.
DBLSH_REGISTER_INDEX(
    kRegisterFbLsh, "FB-LSH",
    "FB-LSH (paper Sec. VI-A ablation): DB-LSH's (K,L)-index with fixed "
    "grid bucketing; accepts n=<dataset size> to pick the paper's L",
    [](const IndexFactory::Spec& spec) -> Result<std::unique_ptr<AnnIndex>> {
      size_t n = 0;
      {
        SpecReader reader(spec);
        reader.Key("n", &n);
        // Remaining keys are validated by DbLshParamsFromSpec below; an
        // unparsable n surfaces through this reader.
        if (Status s = reader.Finish();
            !s.ok() && spec.values().count("n") > 0 &&
            s.message().find("\"n\"") != std::string::npos) {
          return s;
        }
      }
      auto params =
          DbLshParamsFromSpec(spec.WithoutKey("n"), FbLshDefaultParams(n));
      if (!params.ok()) return params.status();
      std::unique_ptr<AnnIndex> index =
          std::make_unique<DbLsh>(params.value());
      return index;
    });

}  // namespace dblsh
