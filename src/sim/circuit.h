// Circuit netlist data model for the MNA transient simulator.
//
// This is the AS/X substitute: linear R/L/C elements, independent sources,
// and a behavioral repeater ("buffer") element that switches its output
// driver when its input crosses a threshold — exactly the linearized CMOS
// gate model the paper uses (output resistance Rtr = R0/h, input capacitance
// CL = h C0, step-like switching).
//
// Nodes are referred to by name; "0" and "gnd" are ground. The Circuit owns
// the name <-> index mapping; elements store indices.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>  // rlcsim-lint: allow(unordered-container)
#include <variant>
#include <vector>

namespace rlcsim::sim {

using NodeId = int;
inline constexpr NodeId kGround = -1;

// ---------------------------------------------------------------- sources

struct DcSpec {
  double value = 0.0;
};

// v0 -> v1 at t = delay, with an optional linear ramp of `rise` seconds.
struct StepSpec {
  double v0 = 0.0;
  double v1 = 1.0;
  double delay = 0.0;
  double rise = 0.0;
};

// Piecewise-linear waveform; points must have strictly increasing times.
struct PwlSpec {
  std::vector<std::pair<double, double>> points;
};

// SPICE PULSE(v0 v1 td tr tf pw period). period == 0 means single pulse.
struct PulseSpec {
  double v0 = 0.0;
  double v1 = 1.0;
  double delay = 0.0;
  double rise = 1e-12;
  double fall = 1e-12;
  double width = 1e-9;
  double period = 0.0;
};

using SourceSpec = std::variant<DcSpec, StepSpec, PwlSpec, PulseSpec>;

// Source value at time t.
double source_value(const SourceSpec& spec, double t);

// ---------------------------------------------------------------- elements

struct Resistor {
  NodeId n1 = kGround;
  NodeId n2 = kGround;
  double resistance = 0.0;
  std::string name;
};

struct Capacitor {
  NodeId n1 = kGround;
  NodeId n2 = kGround;
  double capacitance = 0.0;
  double initial_voltage = 0.0;
  std::string name;
};

struct Inductor {
  NodeId n1 = kGround;  // current flows n1 -> n2 through the inductor
  NodeId n2 = kGround;
  double inductance = 0.0;
  double initial_current = 0.0;
  std::string name;
};

struct VoltageSource {
  NodeId positive = kGround;
  NodeId negative = kGround;
  SourceSpec spec;
  std::string name;
};

struct CurrentSource {  // current flows from `from` node to `to` node
  NodeId from = kGround;
  NodeId to = kGround;
  SourceSpec spec;
  std::string name;
};

// Mutual inductive coupling between two inductors (SPICE 'K' element),
// stored by inductor index with the mutual inductance M = k sqrt(L1 L2)
// precomputed.
struct MutualCoupling {
  std::size_t inductor_a = 0;
  std::size_t inductor_b = 0;
  double coupling = 0.0;  // k in [0, 1)
  double mutual = 0.0;    // M, henries
  std::string name;
};

// Behavioral repeater: threshold buffer.
//   input node:  loads the net with `input_capacitance` to ground;
//   output:      a source behind `output_resistance` that switches from
//                `output_v0` to `output_v1` (over a linear `output_rise`
//                ramp, 0 = ideal step) at the moment the input first crosses
//                `threshold * vdd` in `input_direction`.
// The default edge fields reproduce the classic non-inverting buffer (fires
// on a rising crossing, output steps 0 -> vdd); add_switching_buffer() sets
// them for falling chains and inverting (polarity-interleaved) repeaters.
// The transient engine locates the crossing with step bisection, so the fire
// time is resolved well below the time step.
struct Buffer {
  NodeId input = kGround;
  NodeId output = kGround;
  double output_resistance = 0.0;
  double input_capacitance = 0.0;
  double vdd = 1.0;
  double threshold = 0.5;  // fraction of vdd
  std::string name;
  // Edge behavior (defaults = the classic non-inverting rising buffer).
  int input_direction = +1;   // +1: fires on a rising input crossing; -1: falling
  double output_v0 = 0.0;     // output drive level before the fire instant
  double output_v1 = 1.0;     // ... after it (ramped over output_rise)
  double output_rise = 0.0;   // linear output edge duration, s (0 = ideal step)
};

// ---------------------------------------------------------------- circuit

class Circuit {
 public:
  // Returns the node id for `name`, creating it on first use. "0" and "gnd"
  // (any case) return kGround.
  NodeId node(const std::string& name);
  // Lookup without creating; std::nullopt if the name is unknown.
  std::optional<NodeId> find_node(const std::string& name) const;
  const std::string& node_name(NodeId id) const;
  std::size_t node_count() const { return node_names_.size(); }

  void add_resistor(const std::string& n1, const std::string& n2, double r,
                    std::string name = {});
  void add_capacitor(const std::string& n1, const std::string& n2, double c,
                     double initial_voltage = 0.0, std::string name = {});
  // add_capacitor that also admits c == 0: a STRUCTURAL capacitor occupies
  // its MNA slots (so topologically identical circuits whose coupling values
  // include 0 share one sparsity pattern) while contributing nothing
  // numerically — every companion-model term is proportional to c.
  void add_structural_capacitor(const std::string& n1, const std::string& n2,
                                double c, double initial_voltage = 0.0,
                                std::string name = {});
  void add_inductor(const std::string& n1, const std::string& n2, double l,
                    double initial_current = 0.0, std::string name = {});
  void add_voltage_source(const std::string& positive, const std::string& negative,
                          SourceSpec spec, std::string name = {});
  void add_current_source(const std::string& from, const std::string& to,
                          SourceSpec spec, std::string name = {});
  // Replaces the spec of an already-added voltage source (element index, the
  // order of voltage_sources()). The drive-override seam: analyses build a
  // canonical testbench, then swap in richer per-line drives (multi-segment
  // PWL, pulses) the builder's drive tables cannot express. Topology and
  // sparsity pattern are untouched. Throws std::out_of_range on a bad index.
  void set_voltage_source_spec(std::size_t index, SourceSpec spec);
  void add_buffer(const std::string& input, const std::string& output,
                  double output_resistance, double input_capacitance, double vdd = 1.0,
                  double threshold = 0.5, std::string name = {});
  // Buffer with an explicit edge: fires on `input_direction` (+1 rising, -1
  // falling) crossings of threshold*vdd, output transitions output_v0 ->
  // output_v1 over a linear `output_rise` ramp (0 = ideal step). Covers
  // falling repeater chains and inverting (polarity-interleaved) repeaters;
  // add_buffer() is the (+1, 0, vdd, step) special case.
  void add_switching_buffer(const std::string& input, const std::string& output,
                            double output_resistance, double input_capacitance,
                            int input_direction, double output_v0, double output_v1,
                            double output_rise = 0.0, double vdd = 1.0,
                            double threshold = 0.5, std::string name = {});
  // Couples two previously added inductors (referenced by their element
  // names) with coefficient k in [0, 1). Throws std::invalid_argument for
  // unknown inductor names, self-coupling, or k outside [0, 1).
  void add_mutual(const std::string& inductor_a, const std::string& inductor_b,
                  double k, std::string name = {});

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<VoltageSource>& voltage_sources() const { return vsources_; }
  const std::vector<CurrentSource>& current_sources() const { return isources_; }
  const std::vector<Buffer>& buffers() const { return buffers_; }
  const std::vector<MutualCoupling>& mutuals() const { return mutuals_; }

  // Structural sanity checks; throws std::invalid_argument with a precise
  // message on: nonpositive R/C/L values, sources shorted to themselves,
  // nodes with no DC path to ground (floating via capacitors only is
  // reported), and empty circuits.
  void validate() const;

 private:
  std::vector<std::string> node_names_;
  // Name -> index into node_names_, for O(1) node()/find_node(). Lookup
  // only, never iterated: ids follow insertion order in node_names_.
  // rlcsim-lint: allow(unordered-container)
  std::unordered_map<std::string, NodeId> node_ids_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Inductor> inductors_;
  std::vector<VoltageSource> vsources_;
  std::vector<CurrentSource> isources_;
  std::vector<Buffer> buffers_;
  std::vector<MutualCoupling> mutuals_;
};

}  // namespace rlcsim::sim
