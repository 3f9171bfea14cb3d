#include "api/registry.hpp"

#include <charconv>
#include <cmath>

#include "fba/geobacter.hpp"
#include "fba/geobacter_problem.hpp"
#include "kinetics/scenarios.hpp"
#include "moo/moead.hpp"
#include "moo/nsga2.hpp"
#include "moo/pmo2.hpp"
#include "moo/spea2.hpp"
#include "moo/testproblems.hpp"
#include "moo/topology.hpp"

namespace rmp::api {

namespace {

/// Splits on `sep`, keeping empty tokens (a trailing "a,b," yields an empty
/// third entry the caller can reject — silent dropping would turn a typo'd
/// engine list into a differently-shaped archipelago).
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = s.find(sep, start);
    out.push_back(s.substr(start, end - start));
    if (end == std::string::npos) return out;
    start = end + 1;
  }
}

std::string join(std::span<const std::string> parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += ", ";
    out += part;
  }
  return out;
}

/// "a, b, c" of a registry's entry names, for unknown-name errors.
template <typename EntryMap>
std::string known_names(const EntryMap& entries) {
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const auto& [name, entry] : entries) names.push_back(name);
  return join(names);
}

}  // namespace

ParsedRef parse_ref(const std::string& ref) {
  ParsedRef parsed;
  const std::size_t qmark = ref.find('?');
  parsed.name = ref.substr(0, qmark);
  if (parsed.name.empty()) throw SpecError("empty name in reference \"" + ref + "\"");
  if (qmark == std::string::npos) return parsed;
  const std::string tail = ref.substr(qmark + 1);
  if (tail.empty()) return parsed;
  for (const std::string& pair : split(tail, '&')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      throw SpecError("malformed parameter \"" + pair + "\" in reference \"" + ref +
                      "\" (expected key=value)");
    }
    const std::string key = pair.substr(0, eq);
    if (!parsed.params.emplace(key, pair.substr(eq + 1)).second) {
      throw SpecError("duplicate parameter \"" + key + "\" in reference \"" + ref + "\"");
    }
  }
  return parsed;
}

std::size_t param_size(const ParamMap& params, const std::string& key,
                       std::size_t fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& v = it->second;
  std::size_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
  if (ec != std::errc() || ptr != v.data() + v.size()) {
    throw SpecError("parameter " + key + "=" + v + " is not a non-negative integer");
  }
  return parsed;
}

double param_double(const ParamMap& params, const std::string& key, double fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& v = it->second;
  // from_chars, not strtod: locale-independent, and no hex-float spellings.
  // from_chars does accept "inf"/"nan" — reject those explicitly; every
  // numeric knob in the tree wants a finite value.
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
  if (ec != std::errc() || ptr != v.data() + v.size() || !std::isfinite(parsed)) {
    throw SpecError("parameter " + key + "=" + v + " is not a finite number");
  }
  return parsed;
}

bool param_bool(const ParamMap& params, const std::string& key, bool fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw SpecError("parameter " + key + "=" + v + " is not a boolean (use 0/1)");
}

std::string param_string(const ParamMap& params, const std::string& key,
                         std::string fallback) {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

void require_known_keys(const ParamMap& params, std::span<const std::string> known,
                        const std::string& context) {
  for (const auto& [key, value] : params) {
    bool found = false;
    for (const std::string& k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      throw SpecError("unknown parameter \"" + key + "\" for " + context +
                      (known.empty() ? " (takes no parameters)"
                                     : " (known: " + join(known) + ")"));
    }
  }
}

// -- ProblemRegistry ----------------------------------------------------------

namespace {

/// NSGA-II population: the engine rejects odd sizes (pairwise mating), so
/// fail at spec level with the parameter name instead of surfacing a bare
/// std::invalid_argument from deep inside construction.
std::size_t nsga2_population(const ParamMap& params, const char* optimizer,
                             std::size_t fallback) {
  const std::size_t population = param_size(params, "population", fallback);
  if (population < 4 || population % 2 != 0) {
    throw SpecError(std::string(optimizer) +
                    " population must be even and >= 4 (NSGA-II pairwise "
                    "mating), got " +
                    std::to_string(population));
  }
  return population;
}

/// ZDT variable count with the family's minimum of 2 (g(x) averages over the
/// n-1 tail variables).
std::size_t zdt_n(const ParamMap& params, std::size_t fallback) {
  const std::size_t n = param_size(params, "n", fallback);
  if (n < 2) throw SpecError("ZDT problems need n >= 2 variables");
  return n;
}

void register_builtin_problems(ProblemRegistry& reg) {
  reg.add("zdt1", "ZDT1, convex front (n=30)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt1>(zdt_n(p, 30));
  });
  reg.add("zdt2", "ZDT2, non-convex front (n=30)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt2>(zdt_n(p, 30));
  });
  reg.add("zdt3", "ZDT3, disconnected front (n=30)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt3>(zdt_n(p, 30));
  });
  reg.add("zdt4", "ZDT4, multi-modal g (n=10)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt4>(zdt_n(p, 10));
  });
  reg.add("zdt6", "ZDT6, non-uniform density (n=10)", {"n"}, [](const ParamMap& p) {
    return std::make_shared<moo::Zdt6>(zdt_n(p, 10));
  });
  reg.add("dtlz2", "DTLZ2, spherical m-objective front (n=12, m=3)", {"n", "m"},
          [](const ParamMap& p) {
            const std::size_t m = param_size(p, "m", 3);
            const std::size_t n = param_size(p, "n", 12);
            if (m < 2) throw SpecError("dtlz2 needs m >= 2 objectives");
            if (n < m) throw SpecError("dtlz2 needs n >= m variables");
            return std::make_shared<moo::Dtlz2>(n, m);
          });
  reg.add("schaffer", "Schaffer's single-variable problem", {},
          [](const ParamMap&) { return std::make_shared<moo::Schaffer>(); });
  reg.add("kursawe", "Kursawe, disconnected non-convex front", {},
          [](const ParamMap&) { return std::make_shared<moo::Kursawe>(); });
  reg.add("binh-korn", "Binh-Korn constrained problem", {},
          [](const ParamMap&) { return std::make_shared<moo::BinhKorn>(); });
  reg.add("photosynthesis",
          "C3 enzyme partition design; scenario in {past,present,future}-{low,high}",
          {"scenario", "jacobian", "chord", "pool", "min_uptake"},
          [](const ParamMap& p) {
            const std::string label = param_string(p, "scenario", "present-high");
            const kinetics::Scenario* s = kinetics::scenario_by_label(label);
            if (s == nullptr) {
              std::vector<std::string> labels;
              for (const auto& known : kinetics::all_scenarios()) {
                labels.push_back(known.label);
              }
              throw SpecError("unknown photosynthesis scenario \"" + label +
                              "\" (known: " + join(labels) + ")");
            }
            // Steady-state solver strategy (defaults = the optimized engine;
            // jacobian=fd&chord=1&pool=0 is the FD/cold-start baseline the
            // kinetics bench measures against).
            kinetics::C3Config cfg = kinetics::scenario_config(*s);
            const std::string jac = param_string(p, "jacobian", "analytic");
            if (jac == "analytic") {
              cfg.analytic_jacobian = true;
            } else if (jac == "fd") {
              cfg.analytic_jacobian = false;
            } else {
              throw SpecError("photosynthesis jacobian must be \"analytic\" or "
                              "\"fd\", got \"" + jac + "\"");
            }
            cfg.chord_max_age = param_size(p, "chord", cfg.chord_max_age);
            cfg.warm_pool_capacity = param_size(p, "pool", cfg.warm_pool_capacity);
            kinetics::PhotosynthesisBounds bounds;
            bounds.min_uptake = param_double(p, "min_uptake", bounds.min_uptake);
            return std::make_shared<kinetics::PhotosynthesisProblem>(
                std::make_shared<const kinetics::C3Model>(cfg), bounds);
          });
  reg.add("geobacter",
          "Geobacter 608-reaction flux design (EP vs BP, steady-state violation)",
          {"reactions", "repair", "lp_seeding"}, [](const ParamMap& p) {
            fba::GeobacterSpec spec;
            spec.total_reactions = param_size(p, "reactions", spec.total_reactions);
            if (spec.total_reactions < 100) {
              throw SpecError("geobacter needs reactions >= 100 (the calibrated core)");
            }
            auto network =
                std::make_shared<const fba::MetabolicNetwork>(fba::build_geobacter(spec));
            fba::GeobacterProblemOptions opts;
            opts.nullspace_repair = param_bool(p, "repair", opts.nullspace_repair);
            opts.lp_seeding = param_bool(p, "lp_seeding", opts.lp_seeding);
            return std::make_shared<fba::GeobacterProblem>(std::move(network), opts);
          });
}

}  // namespace

ProblemRegistry& ProblemRegistry::global() {
  static ProblemRegistry* instance = [] {
    auto* reg = new ProblemRegistry();
    register_builtin_problems(*reg);
    return reg;
  }();
  return *instance;
}

void ProblemRegistry::add(std::string name, std::string summary,
                          std::vector<std::string> keys, Factory factory) {
  entries_[std::move(name)] =
      Entry{std::move(summary), std::move(keys), std::move(factory)};
}

std::shared_ptr<moo::Problem> ProblemRegistry::make(const std::string& ref) const {
  const ParsedRef parsed = parse_ref(ref);
  const auto it = entries_.find(parsed.name);
  if (it == entries_.end()) {
    throw SpecError("unknown problem \"" + parsed.name +
                    "\" (known: " + known_names(entries_) + ")");
  }
  require_known_keys(parsed.params, it->second.keys, "problem " + parsed.name);
  return it->second.factory(parsed.params);
}

void ProblemRegistry::validate(const std::string& ref) const {
  const ParsedRef parsed = parse_ref(ref);
  const auto it = entries_.find(parsed.name);
  if (it == entries_.end()) {
    throw SpecError("unknown problem \"" + parsed.name +
                    "\" (see rmp_run --list-problems)");
  }
  require_known_keys(parsed.params, it->second.keys, "problem " + parsed.name);
}

bool ProblemRegistry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<std::pair<std::string, std::string>> ProblemRegistry::list() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.emplace_back(name, entry.summary);
  return out;
}

// -- OptimizerRegistry --------------------------------------------------------

namespace {

moo::TopologyKind parse_topology(const std::string& name) {
  if (name == "all-to-all") return moo::TopologyKind::kAllToAll;
  if (name == "ring") return moo::TopologyKind::kRing;
  if (name == "star") return moo::TopologyKind::kStar;
  if (name == "random") return moo::TopologyKind::kRandom;
  throw SpecError("unknown topology \"" + name +
                  "\" (known: all-to-all, ring, star, random)");
}

void register_builtin_optimizers(OptimizerRegistry& reg) {
  reg.add("nsga2", "NSGA-II (population, seeded_fraction)",
          {"population", "seeded_fraction"},
          [](const moo::Problem& problem, const OptimizerContext& ctx,
             const ParamMap& p) -> std::unique_ptr<moo::Optimizer> {
            moo::Nsga2Options o;
            o.population_size = nsga2_population(p, "nsga2", o.population_size);
            o.seeded_fraction = param_double(p, "seeded_fraction", o.seeded_fraction);
            o.seed = ctx.seed;
            o.eval_threads = ctx.threads;
            return std::make_unique<moo::Nsga2>(problem, o);
          });
  reg.add("spea2", "SPEA2 (population, archive)", {"population", "archive"},
          [](const moo::Problem& problem, const OptimizerContext& ctx,
             const ParamMap& p) -> std::unique_ptr<moo::Optimizer> {
            moo::Spea2Options o;
            o.population_size = param_size(p, "population", o.population_size);
            o.archive_size = param_size(p, "archive", o.archive_size);
            o.seed = ctx.seed;
            o.eval_threads = ctx.threads;
            return std::make_unique<moo::Spea2>(problem, o);
          });
  reg.add("moead", "MOEA/D (population, neighborhood, scalarization)",
          {"population", "neighborhood", "scalarization"},
          [](const moo::Problem& problem, const OptimizerContext& ctx,
             const ParamMap& p) -> std::unique_ptr<moo::Optimizer> {
            moo::MoeadOptions o;
            o.population_size = param_size(p, "population", o.population_size);
            o.neighborhood_size = param_size(p, "neighborhood", o.neighborhood_size);
            const std::string s = param_string(p, "scalarization", "tchebycheff");
            if (s == "tchebycheff") {
              o.scalarization = moo::Scalarization::kTchebycheff;
            } else if (s == "weighted-sum") {
              o.scalarization = moo::Scalarization::kWeightedSum;
            } else {
              throw SpecError("unknown scalarization \"" + s +
                              "\" (known: tchebycheff, weighted-sum)");
            }
            o.seed = ctx.seed;
            o.eval_threads = ctx.threads;
            return std::make_unique<moo::Moead>(problem, o);
          });
  reg.add("pmo2",
          "PMO2 archipelago (islands, population, migration_interval, "
          "migration_probability, migrants, topology, degree, archive_capacity, "
          "engines=a,b,...)",
          {"islands", "population", "migration_interval", "migration_probability",
           "migrants", "topology", "degree", "archive_capacity", "engines"},
          [](const moo::Problem& problem, const OptimizerContext& ctx,
             const ParamMap& p) -> std::unique_ptr<moo::Optimizer> {
            moo::Pmo2Options o;
            o.islands = param_size(p, "islands", o.islands);
            if (o.islands < 1) throw SpecError("pmo2 needs islands >= 1");
            o.migration_interval =
                param_size(p, "migration_interval", o.migration_interval);
            o.migration_probability =
                param_double(p, "migration_probability", o.migration_probability);
            o.migrants_per_edge = param_size(p, "migrants", o.migrants_per_edge);
            o.topology = parse_topology(param_string(p, "topology", "all-to-all"));
            o.random_topology_degree = param_size(p, "degree", o.random_topology_degree);
            o.archive_capacity = param_size(p, "archive_capacity", o.archive_capacity);
            o.seed = ctx.seed;
            o.island_threads = ctx.threads;

            moo::Pmo2::AlgorithmFactory factory;
            const std::string engines = param_string(p, "engines", "");
            // The default archipelago runs NSGA-II on every island, so the
            // per-island population inherits its even-size requirement; with
            // an explicit engines list the named engines validate their own
            // population at island construction.
            const std::size_t population =
                engines.empty() ? nsga2_population(p, "pmo2", 100)
                                : param_size(p, "population", 100);
            if (engines.empty()) {
              // The paper's heterogeneous default: NSGA-II everywhere, odd
              // islands explore (coarser variation), even islands exploit.
              factory = moo::Pmo2::default_nsga2_factory(population);
            } else {
              // Heterogeneous archipelago straight from the registry: island
              // i runs the (i mod k)-th named engine.  Engine seeds are the
              // island streams Pmo2 derives; the archipelago evaluates every
              // island's proposals in its own batches, so the engines take
              // no thread budget.
              std::vector<std::string> names = split(engines, ',');
              for (const std::string& name : names) {
                if (!OptimizerRegistry::global().contains(name)) {
                  throw SpecError("pmo2 engines entry \"" + name +
                                  "\" is not a registered optimizer");
                }
              }
              factory = [names, population](const moo::Problem& island_problem,
                                            std::uint64_t seed, std::size_t island) {
                ParamMap engine_params{{"population", std::to_string(population)}};
                return OptimizerRegistry::global().make_named(
                    names[island % names.size()], island_problem,
                    OptimizerContext{seed}, engine_params);
              };
            }
            return std::make_unique<moo::Pmo2>(problem, o, std::move(factory));
          });
}

}  // namespace

OptimizerRegistry& OptimizerRegistry::global() {
  static OptimizerRegistry* instance = [] {
    auto* reg = new OptimizerRegistry();
    register_builtin_optimizers(*reg);
    return reg;
  }();
  return *instance;
}

void OptimizerRegistry::add(std::string name, std::string summary,
                            std::vector<std::string> keys, Factory factory) {
  entries_[std::move(name)] =
      Entry{std::move(summary), std::move(keys), std::move(factory)};
}

std::unique_ptr<moo::Optimizer> OptimizerRegistry::make(
    const std::string& ref, const moo::Problem& problem,
    const OptimizerContext& context) const {
  const ParsedRef parsed = parse_ref(ref);
  return make_named(parsed.name, problem, context, parsed.params);
}

std::unique_ptr<moo::Optimizer> OptimizerRegistry::make_named(
    const std::string& name, const moo::Problem& problem,
    const OptimizerContext& context, const ParamMap& params) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw SpecError("unknown optimizer \"" + name +
                    "\" (known: " + known_names(entries_) + ")");
  }
  require_known_keys(params, it->second.keys, "optimizer " + name);
  return it->second.factory(problem, context, params);
}

void OptimizerRegistry::validate(const std::string& ref) const {
  const ParsedRef parsed = parse_ref(ref);
  const auto it = entries_.find(parsed.name);
  if (it == entries_.end()) {
    throw SpecError("unknown optimizer \"" + parsed.name +
                    "\" (see rmp_run --list-optimizers)");
  }
  require_known_keys(parsed.params, it->second.keys, "optimizer " + parsed.name);
}

bool OptimizerRegistry::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<std::pair<std::string, std::string>> OptimizerRegistry::list() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.emplace_back(name, entry.summary);
  return out;
}

}  // namespace rmp::api
