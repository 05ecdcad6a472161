// Benchmark: communication/computation overlap in the coupled phase loop.
//
// Runs the same toy coupled configuration with CoupledConfig::overlap off and
// on, fault-free and under a delay-heavy fault plan, and reports wall time per
// coupling window plus the collective state hash for each run. The hash is the
// bit-exactness witness: overlap must not change a single bit of the coupled
// state, faults or not.
//
// Where the win comes from on this transport: a delayed message matures when
// further deliveries land in the same mailbox, or when the receiver's retry
// timeout flushes it. With overlap off, the rearrange waits at the point of
// call with nothing else in flight, so delayed packets can only mature via
// timeout sleeps sitting on the critical path. With overlap on,
// rearrange_begin posts the exchange before the window's regrid work; the
// regrids' own collective traffic ages the delayed packets in the background
// (each delivery wakes the waiter), and rearrange_end usually finds the data
// already in sequence. The delay plan uses FaultConfig's tag window to
// perturb only the rearrange traffic (tag 9300), so the measured stall is
// exactly the kind the overlap machinery exists to hide — component halo
// exchanges run clean in both modes. Fault-free numbers are reported too —
// on a single-core host there is little to hide there, and the JSON says so
// honestly.
//
// Prints a table and writes BENCH_overlap.json.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdint>

#include "coupler/driver.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;

constexpr int kRanks = 4;
constexpr int kReps = 3;

cpl::CoupledConfig bench_config(bool overlap) {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 5;  // 500 cells
  config.atm.nlev = 6;
  config.ocn.grid = grid::TripolarConfig{40, 30, 6};
  config.ocn_couple_ratio = 1;
  config.overlap = overlap;
  return config;
}

/// Delay-only plan: no drops, no duplicates — every perturbation is a delayed
/// delivery that must mature via later traffic or a receiver-timeout flush.
fault::FaultConfig delay_plan() {
  fault::FaultConfig plan;
  plan.seed = 0xbe9c4ULL;
  plan.delay_rate = 0.6;
  plan.delay_deliveries = 3;
  plan.retry_timeout_microseconds = 20000;
  // Target the coupler's rearrange traffic (mct uses tag 9300): component
  // halo exchanges run clean, so the measured stall is exactly the kind the
  // overlap machinery is built to hide.
  plan.tag_min = 9300;
  plan.tag_max = 9399;
  return plan;
}

struct RunResult {
  double best_seconds = 1e300;
  std::uint64_t state_hash = 0;
};

/// One timed run: wall time over `windows` coupled windows plus the final
/// collective state hash (identical across reps — the whole run is
/// deterministic by construction).
RunResult run_once(bool overlap, bool faulty, int windows) {
  std::atomic<double> wall{0.0};
  std::atomic<std::uint64_t> hash{0};
  const auto body = [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, bench_config(overlap));
    comm.barrier();
    const double t0 = obs::now_seconds();
    model.run_windows(windows);
    comm.barrier();
    const double t1 = obs::now_seconds();
    const std::uint64_t h = model.state_hash();  // collective
    if (comm.rank() == 0) {
      wall = t1 - t0;
      hash = h;
    }
  };
  if (faulty) {
    par::WorldOptions options;
    options.fault = delay_plan();
    par::run(kRanks, options, body);
  } else {
    par::run(kRanks, body);
  }
  return {wall.load(), hash.load()};
}

}  // namespace

int main() {
  const int windows = 12;

  std::printf("coupled overlap benchmark: %d ranks, %d windows, best of %d\n\n",
              kRanks, windows, kReps);

  struct Cell {
    const char* condition;
    bool faulty;
    RunResult off, on;
  };
  Cell cells[] = {{"fault_free", false, {}, {}},
                  {"delay_plan", true, {}, {}}};

  std::printf("  %-12s %14s %14s %9s %10s\n", "condition", "overlap off [s]",
              "overlap on [s]", "speedup", "bit-exact");
  for (Cell& cell : cells) {
    // Interleave the off/on runs rep by rep so ambient machine drift hits
    // both modes equally; best-of-kReps per mode on top of that.
    for (int rep = 0; rep < kReps; ++rep) {
      const RunResult off = run_once(/*overlap=*/false, cell.faulty, windows);
      const RunResult on = run_once(/*overlap=*/true, cell.faulty, windows);
      cell.off.best_seconds = std::min(cell.off.best_seconds, off.best_seconds);
      cell.on.best_seconds = std::min(cell.on.best_seconds, on.best_seconds);
      cell.off.state_hash = off.state_hash;
      cell.on.state_hash = on.state_hash;
    }
    const double speedup = cell.off.best_seconds / cell.on.best_seconds;
    const bool exact = cell.off.state_hash == cell.on.state_hash;
    std::printf("  %-12s %14.4f %14.4f %8.3fx %10s\n", cell.condition,
                cell.off.best_seconds, cell.on.best_seconds, speedup,
                exact ? "yes" : "NO");
    if (!exact) {
      std::fprintf(stderr,
                   "error: overlap changed the coupled state under %s "
                   "(%016llx vs %016llx)\n",
                   cell.condition,
                   static_cast<unsigned long long>(cell.off.state_hash),
                   static_cast<unsigned long long>(cell.on.state_hash));
      return 1;
    }
  }

  const double headline =
      cells[1].off.best_seconds / cells[1].on.best_seconds;
  std::printf("\nheadline (delay plan): %.3fx from posting exchanges before "
              "the regrid window\n",
              headline);

  FILE* f = std::fopen("BENCH_overlap.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"ranks\": %d,\n  \"windows\": %d,\n  \"cases\": [\n",
                 kRanks, windows);
    for (std::size_t c = 0; c < 2; ++c) {
      const Cell& cell = cells[c];
      std::fprintf(
          f,
          "    {\"condition\": \"%s\", \"overlap_off_seconds\": %.6f, "
          "\"overlap_on_seconds\": %.6f, \"speedup\": %.4f, "
          "\"state_hash_equal\": %s}%s\n",
          cell.condition, cell.off.best_seconds, cell.on.best_seconds,
          cell.off.best_seconds / cell.on.best_seconds,
          cell.off.state_hash == cell.on.state_hash ? "true" : "false",
          c + 1 < 2 ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"delay_plan_speedup\": %.4f\n"
                 "}\n",
                 headline);
    std::fclose(f);
    std::printf("wrote BENCH_overlap.json\n");
  }
  return 0;
}
