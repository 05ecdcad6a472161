// Benchmark: ensemble fleet serving — N coupled members per process over one
// shared immutable SharedInputs context vs N back-to-back solo runs.
//
// Both paths run the SAME four scenario specs (a control plus three
// perturbed analogs; member k also seeds a slightly displaced/strengthened
// analog of the same typhoon, the usual perturbed-vortex-initialization
// practice — the toy dycore advects temperature passively, so a thermal
// perturbation alone cannot move the track) for the same number of coupled
// windows, end to end including construction. The solo path is the
// status quo: each member rebuilds the mesh, the tripolar grid, the regrid
// matrices, and every communicator-bound coupling plan from scratch. The
// fleet path builds the immutable inputs ONCE on the main thread, hands them
// to every rank thread as shared_ptr<const>, and donates member 0's coupling
// plans to members 1..N-1 — that deduplicated construction is where the
// aggregate members x SYPD win comes from, and the shared- vs replicated-
// resident-bytes line is the memory story.
//
// The per-member state hash is the bit-exactness witness: a fleet member must
// be bit-identical to the same ScenarioSpec run solo. Any mismatch fails the
// benchmark (exit 1) — sharing inputs must never change a member's bits.
//
// Prints a table and writes BENCH_ensemble.json.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "atm/vortex.hpp"
#include "coupler/driver.hpp"
#include "fleet/fleet.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;

constexpr int kRanks = 2;
constexpr int kMembers = 4;
constexpr int kWindows = 4;
constexpr int kReps = 3;
constexpr std::uint64_t kSeedBase = 7000;
constexpr double kPerturbKelvin = 1.0;

cpl::CoupledConfig bench_config() {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 12;  // 2880 cells: construction-heavy, run-light
  config.atm.nlev = 4;
  config.ocn.grid = grid::TripolarConfig{64, 48, 6};
  config.ocn_couple_ratio = 1;
  return config;
}

/// Member k's initial vortex: the control storm for k = 0, and perturbed
/// analogs (displaced and strengthened within analysis uncertainty) for the
/// rest. Identical between a member's solo and fleet runs by construction.
atm::VortexSpec storm(int k) {
  atm::VortexSpec spec;
  spec.lon_deg = 135.0 + 1.5 * k;
  spec.lat_deg = 18.0 + 0.75 * k;
  spec.max_wind_ms = 45.0 + 2.0 * k;
  spec.depression_m = 80.0 + 4.0 * k;
  return spec;
}

struct MemberResult {
  std::uint64_t hash = 0;
  bool found = false;
  double lon = 0.0, lat = 0.0, wind = 0.0;
};

struct RunResult {
  double seconds = 0.0;
  MemberResult members[kMembers];
};

/// The four specs both paths run — identical by construction.
std::vector<cpl::ScenarioSpec> member_specs(
    std::shared_ptr<const cpl::SharedInputs> shared) {
  return fleet::EnsembleFleet::perturbed_specs(bench_config(), kMembers,
                                               std::move(shared), kSeedBase,
                                               kPerturbKelvin);
}

/// Seed the storm, run the windows, and harvest hash + final vortex fix.
MemberResult run_member(cpl::CoupledModel& model, int k) {
  model.seed_typhoon(storm(k));
  model.run_windows(kWindows);
  MemberResult r;
  r.hash = model.state_hash();  // collective
  const atm::VortexFix fix = model.track_typhoon(135.0, 18.0, 1500.0);
  r.found = fix.found;
  r.lon = fix.lon_deg;
  r.lat = fix.lat_deg;
  r.wind = fix.max_wind_ms;
  return r;
}

/// Back-to-back solo runs: each member rebuilds all inputs and plans.
RunResult run_solo() {
  RunResult out;
  const double t0 = obs::now_seconds();
  par::run(kRanks, [&out](par::Comm& comm) {
    std::vector<cpl::ScenarioSpec> specs = member_specs(nullptr);
    for (int k = 0; k < kMembers; ++k) {
      cpl::CoupledModel model(comm, std::move(specs[static_cast<std::size_t>(k)]));
      const MemberResult r = run_member(model, k);
      if (comm.rank() == 0) out.members[k] = r;
    }
  });
  out.seconds = obs::now_seconds() - t0;
  return out;
}

/// The fleet: one SharedInputs build, donated plans, round-robin schedule.
RunResult run_fleet(std::size_t* shared_bytes) {
  RunResult out;
  const double t0 = obs::now_seconds();
  const auto shared = cpl::build_shared_inputs(bench_config());
  par::run(kRanks, [&out, &shared](par::Comm& comm) {
    fleet::EnsembleFleet fl(comm, member_specs(shared));
    for (std::size_t k = 0; k < fl.size(); ++k)
      fl.member(k).seed_typhoon(storm(static_cast<int>(k)));
    fl.run_windows(kWindows);
    for (std::size_t k = 0; k < fl.size(); ++k) {
      auto& model = fl.member(k);
      MemberResult r;
      r.hash = model.state_hash();  // collective
      const atm::VortexFix fix = model.track_typhoon(135.0, 18.0, 1500.0);
      r.found = fix.found;
      r.lon = fix.lon_deg;
      r.lat = fix.lat_deg;
      r.wind = fix.max_wind_ms;
      if (comm.rank() == 0) out.members[k] = r;
    }
  });
  out.seconds = obs::now_seconds() - t0;
  if (shared_bytes != nullptr) *shared_bytes = shared->resident_bytes();
  return out;
}

}  // namespace

int main() {
  std::printf(
      "ensemble fleet benchmark: %d members, %d ranks, %d windows, "
      "best of %d (interleaved)\n\n",
      kMembers, kRanks, kWindows, kReps);

  RunResult solo, fleet_run;
  solo.seconds = 1e300;
  fleet_run.seconds = 1e300;
  std::size_t shared_bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    // Interleave solo/fleet rep by rep so ambient machine drift hits both
    // paths equally; best-of-kReps on top of that.
    const RunResult s = run_solo();
    const RunResult f = run_fleet(&shared_bytes);
    if (s.seconds < solo.seconds) solo.seconds = s.seconds;
    if (f.seconds < fleet_run.seconds) fleet_run.seconds = f.seconds;
    for (int k = 0; k < kMembers; ++k) {
      solo.members[k] = s.members[k];
      fleet_run.members[k] = f.members[k];
    }
  }

  const cpl::CoupledConfig config = bench_config();
  const double sim_seconds = kWindows * config.atm.model_dt_seconds();
  auto aggregate_sypd = [&](double wall_seconds) {
    cpl::TimingSummary timing;
    timing.simulated_seconds = kMembers * sim_seconds;
    timing.wall_seconds = wall_seconds;
    return timing.sypd();
  };
  const double sypd_solo = aggregate_sypd(solo.seconds);
  const double sypd_fleet = aggregate_sypd(fleet_run.seconds);
  const double speedup = solo.seconds / fleet_run.seconds;
  const std::size_t replicated_bytes =
      static_cast<std::size_t>(kMembers) * shared_bytes;

  std::printf("  %-9s %6s %18s %18s %10s\n", "member", "seed", "solo hash",
              "fleet hash", "bit-exact");
  bool all_exact = true;
  for (int k = 0; k < kMembers; ++k) {
    const bool exact = solo.members[k].hash == fleet_run.members[k].hash;
    all_exact = all_exact && exact;
    std::printf("  %-9s %6llu   %016llx   %016llx %10s\n",
                k == 0 ? "control" : ("member-" + std::to_string(k)).c_str(),
                static_cast<unsigned long long>(
                    k == 0 ? 0 : kSeedBase + static_cast<std::uint64_t>(k)),
                static_cast<unsigned long long>(solo.members[k].hash),
                static_cast<unsigned long long>(fleet_run.members[k].hash),
                exact ? "yes" : "NO");
  }
  if (!all_exact) {
    std::fprintf(stderr,
                 "error: a fleet member diverged from its solo run — shared "
                 "inputs changed the bits\n");
    return 1;
  }

  // Ensemble spread: how far the perturbed analogs' storms wandered from the
  // control's, and the intensity band across members.
  double spread_km = 0.0, wind_lo = 1e300, wind_hi = -1e300;
  std::printf("\n  %-9s %10s %10s %12s\n", "member", "lon [deg]", "lat [deg]",
              "wind [m/s]");
  for (int k = 0; k < kMembers; ++k) {
    const MemberResult& m = fleet_run.members[k];
    if (!m.found) continue;
    std::printf("  %-9s %10.3f %10.3f %12.2f\n",
                k == 0 ? "control" : ("member-" + std::to_string(k)).c_str(),
                m.lon, m.lat, m.wind);
    wind_lo = std::min(wind_lo, m.wind);
    wind_hi = std::max(wind_hi, m.wind);
    for (int j = 0; j < k; ++j) {
      if (!fleet_run.members[j].found) continue;
      spread_km = std::max(
          spread_km, atm::track_distance_km(m.lon, m.lat,
                                            fleet_run.members[j].lon,
                                            fleet_run.members[j].lat));
    }
  }
  const double wind_spread = wind_hi >= wind_lo ? wind_hi - wind_lo : 0.0;
  std::printf("  track spread %.1f km, intensity spread %.2f m/s\n",
              spread_km, wind_spread);

  std::printf(
      "\n  %-22s %12.4f s   %.4f members x SYPD\n"
      "  %-22s %12.4f s   %.4f members x SYPD\n"
      "  aggregate speedup: %.3fx   shared inputs: %zu bytes "
      "(vs %zu replicated)\n",
      "back-to-back solo", solo.seconds, sypd_solo, "shared-inputs fleet",
      fleet_run.seconds, sypd_fleet, speedup, shared_bytes, replicated_bytes);

  FILE* f = std::fopen("BENCH_ensemble.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"members\": %d,\n  \"ranks\": %d,\n"
                 "  \"windows\": %d,\n  \"reps\": %d,\n"
                 "  \"solo_seconds\": %.6f,\n  \"fleet_seconds\": %.6f,\n"
                 "  \"speedup\": %.4f,\n"
                 "  \"solo_members_sypd\": %.6f,\n"
                 "  \"fleet_members_sypd\": %.6f,\n"
                 "  \"shared_resident_bytes\": %zu,\n"
                 "  \"replicated_resident_bytes\": %zu,\n"
                 "  \"track_spread_km\": %.3f,\n"
                 "  \"intensity_spread_ms\": %.3f,\n  \"member_runs\": [\n",
                 kMembers, kRanks, kWindows, kReps, solo.seconds,
                 fleet_run.seconds, speedup, sypd_solo, sypd_fleet,
                 shared_bytes, replicated_bytes, spread_km, wind_spread);
    for (int k = 0; k < kMembers; ++k) {
      std::fprintf(
          f,
          "    {\"member\": %d, \"seed\": %llu, "
          "\"solo_hash\": \"%016llx\", \"fleet_hash\": \"%016llx\", "
          "\"hashes_equal\": %s, \"lon_deg\": %.4f, \"lat_deg\": %.4f, "
          "\"max_wind_ms\": %.3f}%s\n",
          k,
          static_cast<unsigned long long>(
              k == 0 ? 0 : kSeedBase + static_cast<std::uint64_t>(k)),
          static_cast<unsigned long long>(solo.members[k].hash),
          static_cast<unsigned long long>(fleet_run.members[k].hash),
          solo.members[k].hash == fleet_run.members[k].hash ? "true" : "false",
          fleet_run.members[k].lon, fleet_run.members[k].lat,
          fleet_run.members[k].wind, k + 1 < kMembers ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_ensemble.json\n");
  }
  return 0;
}
