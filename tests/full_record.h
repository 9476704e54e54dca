// The full-record reference of sim::measure_transient: run_transient plus
// Trace reads under the same auto-extend loop (attempt k runs with
// t_stop * 4^k and the caller's dt policy, up to 4 attempts, until every
// crossing probe has crossed). The probe recorder must reproduce every
// reading of this reference bit for bit, on the same attempt.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/transient.h"
#include "sim/transient_batch.h"

namespace rlcsim::full_record {

struct Measured {
  sim::TransientResult result;        // the last attempt's full record
  sim::TransientMeasurement readings; // its Trace reads, probe by probe
};

inline Measured measure(const sim::Circuit& circuit,
                        const std::vector<sim::CrossingProbe>& crossings,
                        const std::vector<std::string>& extrema,
                        sim::TransientOptions options, const char* context) {
  std::string missed;
  for (int attempt = 0; attempt < 4; ++attempt, options.t_stop *= 4.0) {
    Measured out{sim::run_transient(circuit, options), {}};
    missed.clear();
    for (const sim::CrossingProbe& probe : crossings) {
      const auto crossing =
          out.result.waveforms.trace(probe.node).crossing(probe.level, 0.0, +1);
      if (!crossing) {
        missed = probe.node;
        break;
      }
      out.readings.crossings.push_back(*crossing);
    }
    if (!missed.empty()) continue;
    for (const std::string& node : extrema) {
      const sim::Trace trace = out.result.waveforms.trace(node);
      out.readings.extrema.push_back({trace.min_value(), trace.max_value()});
    }
    out.readings.buffer_fire_times = out.result.buffer_fire_times;
    out.readings.steps = out.result.steps_taken;
    return out;
  }
  throw std::runtime_error(std::string(context) + ": '" + missed +
                           "' never crossed the threshold within the "
                           "(auto-extended) horizon");
}

// The one-probe case: the first rising crossing of `level` at `node`, with
// the full record of the attempt it came from.
struct DelayRun {
  sim::TransientResult result;
  double crossing = 0.0;  // s
};

inline DelayRun run_until_crossing(const sim::Circuit& circuit, const std::string& node,
                                   double level, const sim::TransientOptions& options,
                                   const char* context) {
  Measured measured = measure(circuit, {{node, level}}, {}, options, context);
  return {std::move(measured.result), measured.readings.crossings[0]};
}

}  // namespace rlcsim::full_record
