#include "repbus/optimize.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace rlcsim::repbus {
namespace {

struct Candidate {
  double size = 0.0;
  int sections = 0;
  Placement placement = Placement::kUniform;
  int shield_every = 0;
};

RepeaterBusSpec spec_of(const tline::CoupledBus& bus,
                        const core::MinBuffer& buffer,
                        const OptimizerOptions& options, const Candidate& c) {
  RepeaterBusSpec spec;
  spec.bus = bus;
  spec.sections = c.sections;
  spec.size = c.size;
  spec.buffer = buffer;
  spec.placement = c.placement;
  spec.segments_per_section = options.segments_per_section;
  spec.vdd = options.vdd;
  spec.source_rise = options.source_rise;
  spec.buffer_rise = options.buffer_rise;
  spec.shield_every = c.shield_every;
  return spec;
}

// The three pattern walks of one candidate over its (shared) stage models:
// the switching walks read only the delay, the quiet walk only the noise.
BusDesignEval evaluate(const tline::CoupledBus& bus,
                       const core::MinBuffer& buffer,
                       const OptimizerOptions& options, const Candidate& c,
                       const StageModels& models) {
  const RepeaterBusSpec spec = spec_of(bus, buffer, options, c);
  const ComposedChainMetrics same = compose_bus_chain(
      spec, core::SwitchingPattern::kSamePhase, models, /*want_noise=*/false);
  const ComposedChainMetrics opposite =
      compose_bus_chain(spec, core::SwitchingPattern::kOppositePhase, models,
                        /*want_noise=*/false);
  const ComposedChainMetrics quiet =
      compose_bus_chain(spec, core::SwitchingPattern::kQuietVictim, models);

  BusDesignEval eval;
  eval.size = c.size;
  eval.sections = c.sections;
  eval.placement = c.placement;
  eval.shield_every = c.shield_every;
  eval.same_phase_delay = same.victim_delay_50.value();
  eval.opposite_phase_delay = opposite.victim_delay_50.value();
  eval.worst_delay = std::max(eval.same_phase_delay, eval.opposite_phase_delay);
  eval.noise = quiet.peak_noise;
  eval.area = repeater_area(spec);
  eval.feasible = eval.noise <= options.noise_cap;
  return eval;
}

// a dominates b: no worse on every frontier axis, strictly better on one.
bool dominates(const BusDesignEval& a, const BusDesignEval& b) {
  const bool no_worse = a.worst_delay <= b.worst_delay && a.area <= b.area &&
                        a.noise <= b.noise;
  const bool better = a.worst_delay < b.worst_delay || a.area < b.area ||
                      a.noise < b.noise;
  return no_worse && better;
}

}  // namespace

BusOptimizationResult optimize_bus_repeaters(const tline::CoupledBus& bus,
                                             const core::MinBuffer& buffer,
                                             const OptimizerOptions& options,
                                             const sweep::SweepEngine& engine) {
  tline::validate(bus);
  core::validate(buffer);
  if (options.order < 1)
    throw std::invalid_argument("optimize_bus_repeaters: order must be >= 1");
  if (options.placements.empty())
    throw std::invalid_argument("optimize_bus_repeaters: no placements");
  if (options.shield_options.empty())
    throw std::invalid_argument("optimize_bus_repeaters: no shield options");

  BusOptimizationResult result;
  const tline::LineParams& victim_line = bus.line_at(bus.victim_index());
  result.isolated_design = core::ismail_friedman_rlc(victim_line, buffer);
  result.isolated_delay =
      core::total_delay(victim_line, buffer, result.isolated_design);
  result.threads_used = engine.threads();

  // Default grids bracket the paper's isolated optimum.
  std::vector<double> sizes = options.sizes;
  if (sizes.empty())
    for (double factor : {0.7, 0.85, 1.0, 1.15, 1.3})
      sizes.push_back(std::max(1.0, factor * result.isolated_design.size));
  std::vector<int> sections = options.sections;
  if (sections.empty()) {
    const int k_opt = std::max(
        2, static_cast<int>(std::llround(result.isolated_design.sections)));
    for (int k : {k_opt - 1, k_opt, k_opt + 1})
      if (k >= 1) sections.push_back(k);
  }
  for (double h : sizes)
    if (!(h > 0.0) || !std::isfinite(h))
      throw std::invalid_argument("optimize_bus_repeaters: sizes must be > 0");
  for (int k : sections)
    if (k < 1)
      throw std::invalid_argument(
          "optimize_bus_repeaters: sections must be >= 1");

  std::vector<Candidate> candidates;
  for (int k : sections)
    for (Placement placement : options.placements) {
      if (placement == Placement::kStaggered && k < 2) continue;
      for (int shield : options.shield_options)
        for (double h : sizes) candidates.push_back({h, k, placement, shield});
    }
  if (candidates.empty())
    throw std::invalid_argument("optimize_bus_repeaters: empty candidate grid");

  // Stage models depend on (sections, shield layout, size) and never on the
  // placement, so the placement siblings of a size share ONE model build.
  // Determinism scheme (the sweep engine's, per topology group): models
  // sharing a stage topology — same (sections, shield layout); h only
  // changes values — share one symbolic G factorization. The first model of
  // each group is built serially on the calling thread and records it; every
  // other model copies the record, so pivot orders (and results) never
  // depend on the schedule.
  struct ModelGroup {
    Candidate first;                  // any member: the model ignores placement
    std::vector<std::size_t> members;  // candidate indices, grid order
    std::optional<StageModels> models;  // built serially for donors
  };
  std::vector<ModelGroup> groups;
  std::map<std::tuple<int, int, double>, std::size_t> group_of;
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    const Candidate& c = candidates[idx];
    auto [it, inserted] = group_of.try_emplace(
        std::make_tuple(c.sections, c.shield_every, c.size), groups.size());
    if (inserted) groups.push_back({c, {}, std::nullopt});
    groups[it->second].members.push_back(idx);
  }
  std::map<std::pair<int, int>, mor::ConductanceReuse> donors;
  for (ModelGroup& group : groups) {
    const Candidate& c = group.first;
    auto [it, inserted] = donors.try_emplace({c.sections, c.shield_every});
    if (inserted)
      group.models = build_stage_models(spec_of(bus, buffer, options, c),
                                        options.order, &it->second);
  }
  result.evaluations.assign(candidates.size(), BusDesignEval{});
  engine.run_custom(groups.size(), [&](std::size_t g,
                                       sweep::SweepEngine::PointContext&) {
    ModelGroup& group = groups[g];
    const Candidate& c = group.first;
    if (!group.models) {
      mor::ConductanceReuse local =
          donors.at({c.sections, c.shield_every});  // read-only copy per model
      group.models = build_stage_models(spec_of(bus, buffer, options, c),
                                        options.order, &local);
    }
    double worst = 0.0;
    for (const std::size_t idx : group.members) {
      result.evaluations[idx] =
          evaluate(bus, buffer, options, candidates[idx], *group.models);
      worst = std::max(worst, result.evaluations[idx].worst_delay);
    }
    return worst;
  });

  // Best feasible (ties broken toward smaller area, then grid order).
  for (const BusDesignEval& eval : result.evaluations) {
    if (!eval.feasible) continue;
    if (!result.best || eval.worst_delay < result.best->worst_delay ||
        (eval.worst_delay == result.best->worst_delay &&
         eval.area < result.best->area))
      result.best = eval;
  }

  // Pareto frontier over (worst_delay, area, noise).
  for (const BusDesignEval& eval : result.evaluations) {
    bool dominated = false;
    for (const BusDesignEval& other : result.evaluations)
      if (dominates(other, eval)) {
        dominated = true;
        break;
      }
    if (!dominated) result.frontier.push_back(eval);
  }
  return result;
}

}  // namespace rlcsim::repbus
