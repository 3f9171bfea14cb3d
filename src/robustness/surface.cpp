#include "robustness/surface.hpp"

#include "pareto/mining.hpp"

namespace rmp::robustness {

std::vector<SurfacePoint> robustness_surface(const pareto::Front& front,
                                             const PropertyFn& property,
                                             const SurfaceConfig& cfg) {
  std::vector<SurfacePoint> out;
  if (front.empty()) return out;

  const std::vector<std::size_t> picks = pareto::equally_spaced(front, cfg.samples);
  // Every pick's global ensemble, each from the same seeded RNG start, then
  // one batch over all nominals and (pick, trial) pairs: every item reads
  // the snapshot committed before the surface.
  std::vector<Ensemble> ensembles;
  for (const std::size_t idx : picks) {
    num::Rng rng(cfg.yield.seed);
    ensembles.push_back(
        {front[idx].x, global_ensemble(front[idx].x, cfg.yield.perturbation, rng)});
  }
  YieldConfig batch_cfg = cfg.yield;
  batch_cfg.threads = cfg.threads;
  const std::vector<YieldResult> yields = score_ensembles(ensembles, property, batch_cfg);
  out.resize(picks.size());
  for (std::size_t k = 0; k < picks.size(); ++k) {
    out[k].front_index = picks[k];
    out[k].objectives = front[picks[k]].f;
    out[k].gamma = yields[k].gamma;
  }
  // Serial epoch barrier after the screen: later stages warm-start from the
  // surface's solved roots.
  if (cfg.yield.epoch_commit) cfg.yield.epoch_commit();
  return out;
}

}  // namespace rmp::robustness
