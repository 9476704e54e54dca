// Cross-version goldens of the analytic-scan consumers. The H-tree timing
// graph of bench/graph_scaling (full size: 5 levels, 31 stages) and a
// staggered 5-line repeater bus composed by repbus::compose_bus_chain are
// printed as hex floats and compared with the listing below, which was
// recorded with the exact scan (one std::exp per pole per grid sample).
// Any change to a scan decision (a bracket, an extremum index, a window
// extension) moves a bit here and fails loudly; on a length mismatch the
// failure message prints the whole current listing.
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/h_tree.h"
#include "graph/timing_graph.h"
#include "repbus/stage_compose.h"
#include "tline/coupled_bus.h"

namespace {

using namespace rlcsim;

const char* const kGolden = R"golden(nodes 31
node 2
arrival 0x1.f5ef65041ba36p-34
slew 0x1.486cda944c99p-32
arrival 0x1.feb2949431db2p-34
slew 0x1.4961e2488fffdp-32
noise 0x0p+0
node 2
arrival 0x1.13210a8f244dcp-32
slew 0x1.e65f2f9fd2819p-33
arrival 0x1.145b415ff99bp-32
slew 0x1.e6bc890cfcedap-33
noise 0x0p+0
node 2
arrival 0x1.1551d67329dbap-32
slew 0x1.e65f2f9fd2823p-33
arrival 0x1.168c0d43ff28fp-32
slew 0x1.e6bc890cfced7p-33
noise 0x0p+0
node 2
arrival 0x1.86c8cde5ba639p-32
slew 0x1.6a06133740b44p-33
arrival 0x1.877e08c7b71edp-32
slew 0x1.6a1a5ad1ec042p-33
noise 0x1.1b801810b207p-13
node 2
arrival 0x1.880304b68fb0dp-32
slew 0x1.6a06133740b44p-33
arrival 0x1.88b83f988c6cp-32
slew 0x1.6a1a5ad1ec0c4p-33
noise 0x1.1b801585812d1p-13
node 2
arrival 0x1.88f999c9bff18p-32
slew 0x1.6a06133740b48p-33
arrival 0x1.89aed4abbcacap-32
slew 0x1.6a1a5ad1ebfeap-33
noise 0x1.1b801826588c7p-13
node 2
arrival 0x1.8a33d09a953ecp-32
slew 0x1.6a06133740b42p-33
arrival 0x1.8ae90b7c91fabp-32
slew 0x1.6a1a5ad1ec038p-33
noise 0x1.1b80176e14652p-13
node 2
arrival 0x1.e74445e35afa1p-32
slew 0x1.265fa844a4772p-33
arrival 0x1.e7b1fd81161dbp-32
slew 0x1.265a51b09cf9cp-33
noise 0x0p+0
node 2
arrival 0x1.e7f980c557b55p-32
slew 0x1.265fa844a4772p-33
arrival 0x1.e867386312d8fp-32
slew 0x1.265a51b09cfbp-33
noise 0x0p+0
node 2
arrival 0x1.e87e7cb430475p-32
slew 0x1.265fa844a477p-33
arrival 0x1.e8ec3451eb6afp-32
slew 0x1.265a51b09cf9cp-33
noise 0x0p+0
node 2
arrival 0x1.e933b7962d028p-32
slew 0x1.265fa844a477p-33
arrival 0x1.e9a16f33e8262p-32
slew 0x1.265a51b09cfaep-33
noise 0x0p+0
node 2
arrival 0x1.e97511c76088p-32
slew 0x1.265fa844a4774p-33
arrival 0x1.e9e2c9651babap-32
slew 0x1.265a51b09cfb2p-33
noise 0x0p+0
node 2
arrival 0x1.ea2a4ca95d432p-32
slew 0x1.265fa844a4776p-33
arrival 0x1.ea9804471866cp-32
slew 0x1.265a51b09cf38p-33
noise 0x0p+0
node 2
arrival 0x1.eaaf489835d54p-32
slew 0x1.265fa844a4774p-33
arrival 0x1.eb1d0035f0f8ep-32
slew 0x1.265a51b09cfbap-33
noise 0x0p+0
node 2
arrival 0x1.eb64837a32913p-32
slew 0x1.265fa844a4772p-33
arrival 0x1.ebd23b17edb4dp-32
slew 0x1.265a51b09d012p-33
noise 0x0p+0
node 2
arrival 0x1.fcca692bdb9e9p-32
slew 0x1.ef94e8a34f11p-36
arrival 0x1.fcd1f8be0215ep-32
slew 0x1.f00479c08ad2p-36
noise 0x1.488484d3c44p-11
node 2
arrival 0x1.fd3820c996c23p-32
slew 0x1.ef94e8a34f0fp-36
arrival 0x1.fd3fb05bbd399p-32
slew 0x1.f00479c08ad3p-36
noise 0x1.488484d700cp-11
node 2
arrival 0x1.fd7fa40dd859dp-32
slew 0x1.ef94e8a34f12p-36
arrival 0x1.fd87339ffed13p-32
slew 0x1.f00479c08adap-36
noise 0x1.488484d587cp-11
node 2
arrival 0x1.fded5bab937d7p-32
slew 0x1.ef94e8a34f11p-36
arrival 0x1.fdf4eb3db9f4dp-32
slew 0x1.f00479c08ad1p-36
noise 0x1.4884821d614p-11
node 2
arrival 0x1.fe049ffcb0ebdp-32
slew 0x1.ef94e8a34f0fp-36
arrival 0x1.fe0c2f8ed7633p-32
slew 0x1.f00479c08ad3p-36
noise 0x1.488484d63ccp-11
node 2
arrival 0x1.fe72579a6c0f7p-32
slew 0x1.ef94e8a34f0fp-36
arrival 0x1.fe79e72c9286cp-32
slew 0x1.f00479c08ad1p-36
noise 0x1.488484cf314p-11
node 2
arrival 0x1.feb9dadeada7p-32
slew 0x1.ef94e8a34f12p-36
arrival 0x1.fec16a70d41e6p-32
slew 0x1.f00479c08ad2p-36
noise 0x1.488484d3d64p-11
node 2
arrival 0x1.ff27927c68caap-32
slew 0x1.ef94e8a34f1p-36
arrival 0x1.ff2f220e8f42p-32
slew 0x1.f00479c08ad4p-36
noise 0x1.488484d5c24p-11
node 2
arrival 0x1.fefb350fe12c8p-32
slew 0x1.ef94e8a34f0cp-36
arrival 0x1.ff02c4a207a3ep-32
slew 0x1.f00479c08ad2p-36
noise 0x1.488484d735cp-11
node 2
arrival 0x1.ff68ecad9c502p-32
slew 0x1.ef94e8a34f12p-36
arrival 0x1.ff707c3fc2c78p-32
slew 0x1.f00479c08adp-36
noise 0x1.488484d409cp-11
node 2
arrival 0x1.ffb06ff1dde7ap-32
slew 0x1.ef94e8a34f0ep-36
arrival 0x1.ffb7ff84045fp-32
slew 0x1.f00479c08ad2p-36
noise 0x1.488484c7504p-11
node 2
arrival 0x1.000f13c7cc85ap-31
slew 0x1.ef94e8a34f0cp-36
arrival 0x1.0012db90dfc15p-31
slew 0x1.f00479c08adp-36
noise 0x1.488484d7344p-11
node 2
arrival 0x1.001ab5f05b3cep-31
slew 0x1.ef94e8a34f11p-36
arrival 0x1.001e7db96e789p-31
slew 0x1.f00479c08ad2p-36
noise 0x1.488484d4724p-11
node 2
arrival 0x1.005191bf38cebp-31
slew 0x1.ef94e8a34f1p-36
arrival 0x1.005559884c0a6p-31
slew 0x1.f00479c08ad1p-36
noise 0x1.488484d4674p-11
node 2
arrival 0x1.00755361599adp-31
slew 0x1.ef94e8a34f0dp-36
arrival 0x1.00791b2a6cd68p-31
slew 0x1.f00479c08acfp-36
noise 0x1.488484d726cp-11
node 2
arrival 0x1.00ac2f30372cap-31
slew 0x1.ef94e8a34f1p-36
arrival 0x1.00aff6f94a685p-31
slew 0x1.f00479c08ad3p-36
noise 0x1.488484d4b3cp-11
chain opposite_phase
delay 0x1.2658ea2490e2ep-31
noise 0x1.76a10baa7074p-4
fire 0x0p+0
fire 0x1.cb90bd0c2fdf5p-34
fire 0x1.149f5e88af543p-32
fire 0x1.b1cb9b2eae643p-32
glitch 0 0
chain quiet_victim
delay none
noise 0x1.33af742387321p-3
fire 0x0p+0
fire 0x0p+0
fire 0x0p+0
fire 0x0p+0
glitch 0 0
)golden";

class Listing {
 public:
  void put(const char* tag, double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%s %a\n", tag, v);
    text_ += buffer;
  }
  void put(const char* tag, const std::optional<double>& v) {
    if (v)
      put(tag, *v);
    else
      text_ += std::string(tag) + " none\n";
  }
  void line(const std::string& s) { text_ += s + "\n"; }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

// graph_scaling's full-size tree_spec().
graph::HTreeSpec golden_tree() {
  graph::HTreeSpec spec;
  spec.levels = 5;
  spec.root_line = {150.0, 5e-10, 3e-13};
  spec.taper = 0.6;
  spec.buffer = {3000.0, 5e-15, 1.0, 0.0};
  spec.size = 32.0;
  spec.source_rise = 2e-11;
  spec.segments_per_branch = 8;
  spec.sink_capacitance = 2e-14;
  spec.sink_imbalance = 0.15;
  spec.order = 4;
  return spec;
}

// graph_scaling's full-size chain_spec(), staggered.
repbus::RepeaterBusSpec golden_bus() {
  repbus::RepeaterBusSpec spec;
  spec.bus = tline::make_bus(5, {500.0, 1e-8, 1e-12}, 0.4, 0.25);
  spec.sections = 4;
  spec.size = 32.0;
  spec.buffer = {3000.0, 5e-15, 1.0, 0.0};
  spec.placement = repbus::Placement::kStaggered;
  spec.segments_per_section = 12;
  return spec;
}

std::string current_listing() {
  Listing out;
  graph::HTreeGraph tree = graph::build_h_tree(golden_tree());
  const graph::GraphResult result = tree.graph.evaluate(1);
  out.line("nodes " + std::to_string(result.nodes.size()));
  for (const graph::NodeMetrics& node : result.nodes) {
    out.line("node " + std::to_string(node.arrival.size()));
    for (std::size_t s = 0; s < node.arrival.size(); ++s) {
      out.put("arrival", node.arrival[s]);
      out.put("slew", node.slew[s]);
    }
    out.put("noise", node.peak_noise);
  }

  const repbus::RepeaterBusSpec bus = golden_bus();
  const repbus::StageModels models = repbus::build_stage_models(bus, 4);
  for (const core::SwitchingPattern pattern :
       {core::SwitchingPattern::kOppositePhase,
        core::SwitchingPattern::kQuietVictim}) {
    const repbus::ComposedChainMetrics m =
        repbus::compose_bus_chain(bus, pattern, models);
    out.line(std::string("chain ") + core::switching_pattern_name(pattern));
    out.put("delay", m.victim_delay_50);
    out.put("noise", m.peak_noise);
    for (const double t : m.victim_fire_times) out.put("fire", t);
    out.line("glitch " + std::to_string(m.glitch_fired ? 1 : 0) + " " +
             std::to_string(m.glitch_depth));
  }
  return out.text();
}

TEST(ScanGolden, HTreeAndStaggeredBusMatchRecordedBits) {
  const std::string current = current_listing();
  std::istringstream want(kGolden), got(current);
  std::string a, b;
  int line = 0;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(want, a));
    const bool more_b = static_cast<bool>(std::getline(got, b));
    ++line;
    if (!more_a && !more_b) break;
    ASSERT_EQ(more_a, more_b) << "listing length differs at line " << line
                              << "\ncurrent listing:\n" << current;
    EXPECT_EQ(a, b) << "line " << line;
  }
}

}  // namespace
