// E17 — the model assumptions are load-bearing too (extension).
//
// The safety proofs (Lemmas 1.1/1.2) argue from reliable FIFO channels:
// a fork request travels behind any fork sent earlier on the same channel,
// so a request always finds the fork at the receiver, so forks are never
// duplicated. This experiment injects the two channel faults the model
// forbids — duplication and reordering — under hunger saturation, with a
// *mistake-free* oracle, so every observed safety violation is purely
// channel-induced.
//
// Signals, per row (10 seeds pooled):
//  * Lemma 1.1 hits — fork requests arriving at a non-holder (impossible
//    under the model; each hit is a direct counterexample to the lemma);
//  * double-holding — both endpoints of an edge holding "the" fork at
//    once (Lemma 1.2 broken), sampled every 25 ticks;
//  * exclusion violations — neighbors eating together despite a truthful
//    oracle (Theorem 1's conclusion failing);
//  * wait-freedom — which, interestingly, survives: the ping/ack and
//    token/fork state machines are boolean, so duplicates are absorbed
//    idempotently on the liveness side even as uniqueness dies.
//
// The complement of E12: there the *oracle's* contract was deleted, here
// the *network's*. The faults come from a net::LinkFaultModel installed
// as the simulator's adversary on an ideal-network Scenario, so no ARQ
// repairs them.
//
// Exit status: 1 unless the model row is 10/10 clean with 0 Lemma 1.1
// hits and every duplication row has Lemma 1.1 hits.
#include <cstdio>
#include <functional>
#include <memory>

#include "dining/checkers.hpp"
#include "net/link_fault_model.hpp"
#include "scenario/scenario.hpp"
#include "util/table.hpp"

using namespace ekbd;
using scenario::Algorithm;
using scenario::Config;
using scenario::DetectorKind;
using scenario::Scenario;

int main() {
  std::printf(
      "E17 — breaking the channel assumptions (saturated ring(8), mistake-free\n"
      "scripted oracle, no crashes, run 150000; 10 seeds pooled per row).\n\n");

  util::Table t({"channels", "Lemma 1.1 hits", "double-holding runs",
                 "exclusion violations", "starving runs", "clean runs"});

  struct Row {
    const char* label;
    double dup;
    double reorder;
  };
  const Row rows[] = {
      {"reliable FIFO (the model)", 0.0, 0.0},
      {"5% duplication", 0.05, 0.0},
      {"20% duplication", 0.20, 0.0},
      {"5% reordering", 0.0, 0.05},
      {"20% reordering", 0.0, 0.20},
      {"20% duplication + 20% reordering", 0.20, 0.20},
  };

  bool gate_ok = true;
  for (const Row& row : rows) {
    std::uint64_t lemma_hits = 0;
    std::uint64_t violations = 0;
    int double_hold_runs = 0;
    int starving_runs = 0;
    int clean_runs = 0;
    for (int seed = 0; seed < 10; ++seed) {
      Config cfg;
      cfg.seed = 1'900 + static_cast<std::uint64_t>(seed);
      cfg.topology = "ring";
      cfg.n = 8;
      cfg.algorithm = Algorithm::kWaitFree;
      cfg.detector = DetectorKind::kScripted;  // zero false positives
      cfg.partial_synchrony = false;
      cfg.harness.think_lo = 1;  // saturation: resources in constant motion
      cfg.harness.think_hi = 8;
      cfg.harness.eat_lo = 40;
      cfg.harness.eat_hi = 100;
      cfg.run_for = 150'000;
      Scenario s(cfg);
      net::LinkFaultModel faults(cfg.seed, {.dup_prob = row.dup, .reorder_prob = row.reorder});
      s.sim().set_adversary(&faults);

      // Sample fork uniqueness (Lemma 1.2) throughout the run.
      bool double_hold = false;
      auto check = std::make_shared<std::function<void()>>();
      *check = [&s, &double_hold, check] {
        for (const auto& [a, b] : s.graph().edges()) {
          if (s.wait_free_diner(a)->holds_fork(b) && s.wait_free_diner(b)->holds_fork(a)) {
            double_hold = true;
          }
        }
        s.sim().schedule_in(25, *check);
      };
      s.sim().schedule_in(25, *check);

      s.run();
      std::uint64_t hits = 0;
      for (std::size_t p = 0; p < cfg.n; ++p) {
        hits += s.wait_free_diner(static_cast<int>(p))->lemma11_violations();
      }
      auto ex = s.exclusion();
      lemma_hits += hits;
      violations += ex.violations.size();
      if (double_hold) ++double_hold_runs;
      if (!s.wait_freedom(30'000).wait_free()) ++starving_runs;
      if (hits == 0 && ex.violations.empty() && !double_hold) ++clean_runs;
    }
    if (row.dup == 0.0 && row.reorder == 0.0 && (lemma_hits != 0 || clean_runs != 10)) {
      std::fprintf(stderr, "E17 gate: the reliable-FIFO row is not 10/10 clean\n");
      gate_ok = false;
    }
    if (row.dup > 0.0 && lemma_hits == 0) {
      std::fprintf(stderr, "E17 gate: %s shows no Lemma 1.1 hit\n", row.label);
      gate_ok = false;
    }
    t.row()
        .cell(row.label)
        .cell(lemma_hits)
        .cell(std::to_string(double_hold_runs) + "/10")
        .cell(violations)
        .cell(std::to_string(starving_runs) + "/10")
        .cell(std::to_string(clean_runs) + "/10");
  }
  t.print();
  std::printf(
      "Reading: the model row is spotless. Duplication breaks Lemma 1.1 by the\n"
      "thousands and, through double-yields, materializes duplicate forks\n"
      "(Lemma 1.2) and real co-eating with a truthful oracle — the exact causal\n"
      "chain the paper's safety proof rules out. Reordering alone fires Lemma 1.1\n"
      "more rarely (a token must overtake its fork). Progress happens to survive\n"
      "(boolean state absorbs duplicates idempotently), which sharpens the\n"
      "conclusion: reliable FIFO channels are specifically a SAFETY assumption.\n");
  return gate_ok ? 0 : 1;
}
