#include "robustness/yield.hpp"

#include <algorithm>
#include <cmath>

#include "core/parallel.hpp"

namespace rmp::robustness {

bool robustness_condition(double nominal_value, double perturbed_value,
                          double absolute_threshold) {
  return std::fabs(nominal_value - perturbed_value) <= absolute_threshold;
}

std::vector<YieldResult> score_ensembles(std::span<const Ensemble> ensembles,
                                         const PropertyFn& f, const YieldConfig& cfg) {
  // Ensemble k owns items [offset[k], offset[k + 1]) of one flat batch: its
  // nominal first (unless the config supplies it), then its trials.
  const std::size_t lead = cfg.nominal_value ? 0 : 1;
  std::vector<std::size_t> offset(ensembles.size() + 1, 0);
  for (std::size_t k = 0; k < ensembles.size(); ++k) {
    offset[k + 1] = offset[k] + lead + ensembles[k].trials.size();
  }
  // Score every item in parallel (PropertyFn is concurrency-safe by
  // contract), then reduce each ensemble serially in index order for
  // bit-exact results.
  std::vector<double> values(offset.back());
  core::parallel_for(values.size(), cfg.threads, [&](std::size_t i) {
    const auto k = static_cast<std::size_t>(
        std::upper_bound(offset.begin(), offset.end(), i) - offset.begin() - 1);
    const std::size_t j = i - offset[k];
    values[i] = j < lead ? f(ensembles[k].x) : f(ensembles[k].trials[j - lead]);
  });

  std::vector<YieldResult> out(ensembles.size());
  for (std::size_t k = 0; k < ensembles.size(); ++k) {
    YieldResult& r = out[k];
    r.nominal_value = lead == 0 ? *cfg.nominal_value : values[offset[k]];
    r.absolute_threshold = cfg.epsilon_fraction * std::fabs(r.nominal_value);
    r.total_trials = ensembles[k].trials.size();
    for (std::size_t i = offset[k] + lead; i < offset[k + 1]; ++i) {
      const double dev = std::fabs(r.nominal_value - values[i]);
      r.max_deviation = std::max(r.max_deviation, dev);
      if (dev <= r.absolute_threshold) ++r.robust_trials;
    }
    if (r.total_trials > 0) {
      r.gamma = static_cast<double>(r.robust_trials) / static_cast<double>(r.total_trials);
    }
  }
  return out;
}

YieldResult global_yield(std::span<const double> x, const PropertyFn& f,
                         const YieldConfig& cfg) {
  num::Rng rng(cfg.seed);
  const Ensemble ensemble{x, global_ensemble(x, cfg.perturbation, rng)};
  YieldConfig shared = cfg;
  if (!shared.nominal_value) shared.nominal_value = f(x);
  // Epoch barrier before the batch: the nominal solve (and anything staged
  // by earlier stages) becomes warm-start snapshot for every trial below.
  if (cfg.epoch_commit) cfg.epoch_commit();
  YieldResult r = score_ensembles({&ensemble, 1}, f, shared).front();
  // ... and after it, so the next ensemble starts from this one's roots.
  if (cfg.epoch_commit) cfg.epoch_commit();
  return r;
}

std::vector<YieldResult> local_yields(std::span<const double> x, const PropertyFn& f,
                                      const YieldConfig& cfg) {
  // The nominal value is shared by every per-variable ensemble: evaluate it
  // once up front (committing it into any epoch-accelerator snapshots)
  // instead of once per variable.
  YieldConfig shared = cfg;
  if (!shared.nominal_value) {
    shared.nominal_value = f(x);
    if (shared.epoch_commit) shared.epoch_commit();
  }
  // Every variable's seeded ensemble, then one batch over all (variable,
  // trial) pairs; every trial reads the snapshot committed above.
  std::vector<Ensemble> ensembles;
  ensembles.reserve(x.size());
  for (std::size_t var = 0; var < x.size(); ++var) {
    num::Rng rng(cfg.seed + var + 1);
    ensembles.push_back({x, local_ensemble(x, var, cfg.perturbation, rng)});
  }
  return score_ensembles(ensembles, f, shared);
}

}  // namespace rmp::robustness
