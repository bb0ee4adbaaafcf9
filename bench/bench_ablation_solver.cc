// Ablation: extra-bit placement strategy.
//
// The paper's Algorithm 1 always places a twin's extra bits at x_{n-5} and
// x_{n-1} and a single's at x_n, and claims collisions never occur.  Under
// our reconstruction of its conventions that holds for QAM-16/64 but *not*
// for QAM-256 on CH2/CH3, where dense significant-bit clusters make the
// fixed positions collide.  Our cluster solver (Gaussian elimination over
// GF(2)) falls back to alternative tap positions.  This bench counts, per
// configuration, how many equations needed a non-paper position — i.e. how
// often the fixed strategy alone would have failed.
#include "bench_util.h"
#include "sledzig/significant_bits.h"

using namespace sledzig;

namespace {

struct Counts {
  std::size_t equations = 0;
  std::size_t paper_positions = 0;
  std::size_t fallback_positions = 0;
  std::size_t unforced = 0;
};

Counts analyse(const core::SledzigConfig& cfg, std::size_t symbols) {
  const std::size_t dbps =
      wifi::data_bits_per_symbol(cfg.modulation, cfg.rate);
  const auto plan = core::build_constraint_plan(cfg, 0, dbps * symbols);
  Counts c;
  c.unforced = plan.num_unforced();
  const auto& eqs = plan.equations;
  for (std::size_t e = 0; e < eqs.size(); ++e) {
    const auto& eq = eqs[e];
    ++c.equations;
    // Twin = two forced equations share a step (they sit side by side).
    const bool twin = (e > 0 && eqs[e - 1].step == eq.step) ||
                      (e + 1 < eqs.size() && eqs[e + 1].step == eq.step);
    const std::size_t paper_pos =
        twin ? (eq.branch == 0 ? eq.step - 5 : eq.step - 1) : eq.step;
    if (plan.positions[e] == paper_pos) {
      ++c.paper_positions;
    } else {
      ++c.fallback_positions;
    }
  }
  return c;
}

}  // namespace

int main() {
  bench::title("Ablation: paper-fixed extra positions vs cluster solver");
  bench::note("50 OFDM symbols per configuration.");
  bench::row("  %-8s %-5s %-5s %-10s %-12s %-12s %-9s", "QAM", "rate", "CH",
             "equations", "paper-pos", "fallback", "unforced");
  for (const auto& mode : wifi::paper_phy_modes()) {
    for (auto ch : core::kAllOverlapChannels) {
      core::SledzigConfig cfg{mode.modulation, mode.rate, ch};
      const auto c = analyse(cfg, 50);
      bench::row("  %-8s %-5s %-5s %-10zu %-12zu %-12zu %-9zu",
                 wifi::to_string(mode.modulation).c_str(),
                 wifi::to_string(mode.rate).c_str(),
                 core::to_string(ch).c_str(), c.equations, c.paper_positions,
                 c.fallback_positions, c.unforced);
    }
  }
  bench::note("Non-zero fallback counts mark configurations where the paper's");
  bench::note("fixed placement alone could not satisfy every significant bit.");
  return 0;
}
