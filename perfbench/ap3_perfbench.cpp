// AP3ESM benchmark driver: coupled simulated-years-per-day (SYPD) on four
// seeded, live workloads, plus a traced per-layer ledger.
//
//   ap3_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (all sequential-layout coupled runs with a vortex seeded from
// --seed, so winds, wind stress and ocean currents are nonzero):
//   coupled_ocn  toy quickstart geometry on 2 ranks; the ocean and its
//                BlockHalo traffic dominate, the atmosphere is nearly idle.
//   coupled_atm  20,480-cell x 30-level atmosphere on 4 ranks; the dycore,
//                GraphHalo and the coupler's regrid/rearrange dominate.
//   fleet_ai     4 perturbed members on 2 ranks with AI physics (one
//                kSerial/fp32 InferenceEngine per rank, frozen toy suite in
//                the shared context).
//   restart_io   async fp64 checkpoints every 3 windows, a fence, a restore
//                into a fresh model and the resumed tail, on 2 ranks.
//
// Every run is confined to one core (see pin_to_one_core), so SYPD counts
// the ranks' total work plus one thread switch per blocking message.
// coupled_ocn runs 2 ranks, not the quickstart's 4: its cost is mostly
// per-message switches, and at 4 ranks their cost drifted by ±11% between
// back-to-back runs where 2 ranks stayed within ±2%.
//
// Untraced runs (--trace 0) switch obs off and repeat the whole workload —
// set-up, stepping, witnesses — until --seconds have passed, reporting
// medians over the repetitions. Traced runs (--trace 1) alternate obs-off
// and obs-on repetitions, read the spans and counters the program already
// records through the obs public API, time the calls this driver makes
// into each module, and run direct layer probes at the workload's rank
// count and decomposition.
//
// The last stdout line is one JSON object: correct / attempted / failed
// (correctness checks) and the metrics for the requested pass.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ai/engine.hpp"
#include "ai/suite.hpp"
#include "atm/dycore.hpp"
#include "atm/physics.hpp"
#include "atm/vortex.hpp"
#include "base/rng.hpp"
#include "coupler/driver.hpp"
#include "fleet/fleet.hpp"
#include "grid/halo.hpp"
#include "grid/partition.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads ----------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  int ranks = 1;
  int mesh_n = 6;
  int nlev = 10;
  grid::TripolarConfig ocn;
  int windows = 5;     ///< master coupling windows per repetition
  int members = 1;     ///< >1: an EnsembleFleet running AI physics
  int ckpt_every = 0;  ///< >0: async checkpoints, fence, restore, resume
};

grid::TripolarConfig ocean(int nx, int ny, int nz) {
  grid::TripolarConfig g;
  g.nx = nx;
  g.ny = ny;
  g.nz = nz;
  return g;
}

std::vector<WorkloadSpec> workloads() {
  return {
      {"coupled_ocn", 2, 6, 10, ocean(48, 36, 10), 5, 1, 0},
      {"coupled_atm", 4, 32, 30, ocean(24, 18, 6), 10, 1, 0},
      {"fleet_ai", 2, 8, 10, ocean(24, 18, 6), 5, 4, 0},
      {"restart_io", 2, 24, 30, ocean(24, 18, 6), 15, 1, 3},
  };
}

cpl::CoupledConfig make_config(const WorkloadSpec& w) {
  cpl::CoupledConfig config;
  config.atm.mesh_n = w.mesh_n;
  config.atm.nlev = w.nlev;
  config.ocn.grid = w.ocn;
  config.layout = cpl::Layout::kSequential;
  return config;
}

/// Everything the seed decides. The program only ever sees the generated
/// VortexSpec and ScenarioSpecs, never the seed itself.
struct Scenario {
  atm::VortexSpec vortex;
  std::uint64_t perturbation_base = 0;
};

Scenario make_scenario(std::uint64_t seed) {
  Rng rng(0x5EEDB0A7ull ^ (seed * 0x9E3779B97F4A7C15ull));
  Scenario s;
  // Western North Pacific storms, wide enough to span several cells of the
  // coarsest toy mesh (~850 km spacing at mesh_n 6).
  s.vortex.lon_deg = rng.uniform(125.0, 165.0);
  s.vortex.lat_deg = rng.uniform(12.0, 28.0);
  s.vortex.radius_km = rng.uniform(450.0, 800.0);
  s.vortex.max_wind_ms = rng.uniform(28.0, 48.0);
  s.vortex.depression_m = rng.uniform(50.0, 90.0);
  s.perturbation_base = 1000 + rng.uniform_int(1000000);
  return s;
}

constexpr double kPerturbKelvin = 0.5;

std::vector<cpl::ScenarioSpec> member_specs(
    const WorkloadSpec& w, const Scenario& sc,
    std::shared_ptr<const cpl::SharedInputs> shared) {
  return fleet::EnsembleFleet::perturbed_specs(make_config(w), w.members,
                                               std::move(shared),
                                               sc.perturbation_base,
                                               kPerturbKelvin);
}

/// The frozen toy AI suite every fleet_ai repetition trains during set-up
/// (fixed training seed: the weights are an input, not part of the scenario).
std::shared_ptr<ai::AiPhysicsSuite> train_toy_suite(const cpl::CoupledConfig& c) {
  atm::ConventionalPhysics conventional;
  const atm::TrainingData data = atm::generate_training_data(
      conventional, 16, 4, static_cast<std::size_t>(c.atm.nlev), 11,
      c.atm.model_dt_seconds());
  ai::SuiteConfig suite_config;
  suite_config.levels = c.atm.nlev;
  suite_config.cnn_hidden = 8;
  suite_config.mlp_hidden = 16;
  return atm::train_ai_physics(data, suite_config, 6, 3e-3f).suite;
}

// --- correctness checks -------------------------------------------------------

/// Correctness checks feeding `attempted` / `failed`; recorded by rank 0 or
/// the main thread only.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// Live-state guard: after an ocean coupling under a seeded vortex, the
/// ocean must be moving and every diagnostic must be finite.
bool live(const cpl::CoupledDiagnostics& d) {
  return d.max_surface_current > 0.0 && std::isfinite(d.max_surface_current) &&
         std::isfinite(d.mean_sst_k) && std::isfinite(d.mean_precip) &&
         std::isfinite(d.ice_fraction);
}

// --- one repetition -----------------------------------------------------------

/// Bench-side timings of one repetition (rank 0, barrier to barrier).
struct Rep {
  double setup_s = 0.0;        ///< start of the repetition to the first window
  double shared_inputs_s = 0.0;
  double train_s = 0.0;
  double construct_s = 0.0;    ///< model/fleet ctor + seeding + AI install
  double fleet_construct_s = 0.0;
  double run_s = 0.0;          ///< stepping, incl. checkpoint calls and fence
  double ckpt_call_s = 0.0;
  double ckpt_fence_s = 0.0;
  double restore_s = 0.0;
  double resume_s = 0.0;       ///< stepping of the restored model
  double sim_seconds = 0.0;    ///< simulated seconds (member-seconds for fleets)
  std::uint64_t hash = 0;      ///< final state hash (member 0 for fleets)
  long long ocn_steps = 0;     ///< summed over members
  long long atm_steps = 0;
  std::shared_ptr<const cpl::SharedInputs> shared;

  double sypd() const {
    return sim_seconds / (365.0 * (run_s + restore_s + resume_s));
  }
};

class RankTimer {
 public:
  explicit RankTimer(const par::Comm& comm) : comm_(comm) {
    comm_.barrier();
    t0_ = now_seconds();
  }
  /// Seconds since construction, after every rank has arrived.
  double stop() const {
    comm_.barrier();
    return now_seconds() - t0_;
  }

 private:
  const par::Comm& comm_;
  double t0_ = 0.0;
};

std::string checkpoint_dir() {
  return ".bench_build/perfbench_ckpt/" + std::to_string(::getpid());
}

/// Stepping of one model or fleet: the windows run in segments so the live
/// guard can read diagnostics right after the first ocean coupling (outside
/// the timed intervals) and, for restart_io, so async checkpoints land every
/// `ckpt_every` windows.
template <class Advance, class Diagnose>
void step_windows(const par::Comm& comm, const WorkloadSpec& w, int couple_ratio,
                  Advance&& advance, Diagnose&& diagnose, Rep& rep,
                  const std::function<void(int)>& after_segment) {
  const int segment = w.ckpt_every > 0 ? w.ckpt_every : couple_ratio;
  bool guarded = false;
  int done = 0;
  while (done < w.windows) {
    const int n = std::min(segment, w.windows - done);
    RankTimer t(comm);
    advance(n);
    done += n;
    if (after_segment) after_segment(done);
    const double seconds = t.stop();
    if (comm.rank() == 0) rep.run_s += seconds;
    if (!guarded && done >= couple_ratio) {
      diagnose("after the first ocean coupling");
      guarded = true;
    }
  }
}

Rep run_single(const WorkloadSpec& w, const Scenario& sc, int ranks,
               Checks& checks, const std::string& label) {
  Rep rep;
  const cpl::CoupledConfig config = make_config(w);
  const double t0 = now_seconds();
  rep.shared = cpl::build_shared_inputs(config);
  rep.shared_inputs_s = now_seconds() - t0;
  const std::string dir = checkpoint_dir();

  par::run(ranks, [&](par::Comm& comm) {
    const bool root = comm.rank() == 0;
    cpl::ScenarioSpec spec;
    spec.config = config;
    spec.shared = rep.shared;
    spec.name = w.name;
    std::unique_ptr<cpl::CoupledModel> model;
    {
      RankTimer t(comm);
      model = std::make_unique<cpl::CoupledModel>(comm, spec);
      model->seed_typhoon(sc.vortex);
      const double s = t.stop();
      if (root) {
        rep.construct_s = s;
        rep.setup_s = now_seconds() - t0;
      }
    }
    auto diagnose = [&](const char* when) {
      const cpl::CoupledDiagnostics d = model->diagnostics();
      if (root)
        checks.expect(live(d), label + ": live state " + when +
                                   " (max current " +
                                   std::to_string(d.max_surface_current) + ")");
    };
    double ckpt_call = 0.0;
    auto after_segment = [&](int done) {
      if (w.ckpt_every == 0 || done >= w.windows) return;
      const double c0 = now_seconds();
      model->checkpoint_async(dir);
      ckpt_call += now_seconds() - c0;
    };
    step_windows(comm, w, config.ocn_couple_ratio,
                 [&](int n) { model->run_windows(n); }, diagnose, rep,
                 after_segment);
    if (w.ckpt_every > 0) {
      RankTimer fence(comm);
      model->checkpoint_wait();
      const double f = fence.stop();
      if (root) {
        rep.ckpt_fence_s = f;
        rep.ckpt_call_s = ckpt_call;
        rep.run_s += f;
      }
    }
    diagnose("at the end of the run");
    const std::uint64_t hash = model->state_hash();
    const cpl::CoupledDiagnostics d = model->diagnostics();
    if (root) {
      rep.hash = hash;
      rep.ocn_steps = d.ocn_baroclinic_steps;
      rep.atm_steps = d.atm_steps;
      rep.sim_seconds = w.windows * model->atm_window_seconds();
    }
    if (w.ckpt_every == 0) return;

    // Restart: a fresh model restored from the last snapshot must finish
    // bit-identical to the uninterrupted run above.
    model.reset();
    cpl::CoupledModel restored(comm, spec);
    RankTimer rt(comm);
    restored.restore(dir);
    const double r = rt.stop();
    const long long resumed_at = restored.windows_run();
    RankTimer tail(comm);
    restored.run_windows(w.windows - static_cast<int>(resumed_at));
    const double tail_s = tail.stop();
    const std::uint64_t restored_hash = restored.state_hash();
    if (root) {
      rep.restore_s = r;
      rep.resume_s = tail_s;
      rep.sim_seconds +=
          (w.windows - resumed_at) * restored.atm_window_seconds();
      checks.expect(resumed_at > 0 && resumed_at < w.windows,
                    label + ": restore resumed mid-run");
      checks.expect(restored_hash == hash,
                    label + ": restored hash equals the uninterrupted hash");
    }
  });
  if (w.ckpt_every > 0) std::filesystem::remove_all(dir);
  return rep;
}

Rep run_fleet(const WorkloadSpec& w, const Scenario& sc, int ranks,
              Checks& checks, const std::string& label) {
  Rep rep;
  const cpl::CoupledConfig config = make_config(w);
  const double t0 = now_seconds();
  const std::shared_ptr<ai::AiPhysicsSuite> suite = train_toy_suite(config);
  rep.train_s = now_seconds() - t0;
  const double t1 = now_seconds();
  rep.shared = cpl::build_shared_inputs(config, *suite);
  rep.shared_inputs_s = now_seconds() - t1;

  par::run(ranks, [&](par::Comm& comm) {
    const bool root = comm.rank() == 0;
    std::unique_ptr<fleet::EnsembleFleet> fl;
    {
      RankTimer t(comm);
      fl = std::make_unique<fleet::EnsembleFleet>(
          comm, member_specs(w, sc, rep.shared));
      const double f = t.stop();
      for (std::size_t k = 0; k < fl->size(); ++k)
        fl->member(k).seed_typhoon(sc.vortex);
      fl->install_ai_physics({});  // kSerial / fp32, thawed frozen suite
      const double s = t.stop();
      if (root) {
        rep.fleet_construct_s = f;
        rep.construct_s = s;
        rep.setup_s = now_seconds() - t0;
      }
    }
    auto diagnose = [&](const char* when) {
      const std::vector<cpl::CoupledDiagnostics> ds = fl->diagnostics();
      if (!root) return;
      for (std::size_t k = 0; k < ds.size(); ++k)
        checks.expect(live(ds[k]), label + ": member " + std::to_string(k) +
                                       " live state " + when);
    };
    step_windows(comm, w, config.ocn_couple_ratio,
                 [&](int n) { fl->run_windows(n); }, diagnose, rep, {});
    diagnose("at the end of the run");
    const std::vector<std::uint64_t> hashes = fl->state_hashes();
    const std::vector<cpl::CoupledDiagnostics> ds = fl->diagnostics();
    if (root) {
      rep.hash = hashes.front();
      for (const auto& d : ds) {
        rep.ocn_steps += d.ocn_baroclinic_steps;
        rep.atm_steps += d.atm_steps;
      }
      rep.sim_seconds = static_cast<double>(w.members) * w.windows *
                        fl->member(0).atm_window_seconds();
    }
  });
  return rep;
}

Rep run_rep(const WorkloadSpec& w, const Scenario& sc, int ranks,
            Checks& checks, const std::string& label) {
  return w.members > 1 ? run_fleet(w, sc, ranks, checks, label)
                       : run_single(w, sc, ranks, checks, label);
}

/// fleet_ai witness: member 0 run solo from its own spec over the same
/// shared context must reproduce the fleet's member-0 hash.
std::uint64_t solo_member0_hash(const WorkloadSpec& w, const Scenario& sc,
                                const Rep& fleet_rep) {
  std::uint64_t hash = 0;
  const cpl::CoupledConfig config = make_config(w);
  par::run(w.ranks, [&](par::Comm& comm) {
    cpl::ScenarioSpec spec = member_specs(w, sc, fleet_rep.shared).front();
    cpl::CoupledModel model(comm, std::move(spec));
    model.seed_typhoon(sc.vortex);
    cpl::AiInstallOptions opts;
    opts.suite = fleet_rep.shared->materialize_suite();
    model.install_ai_physics(opts);
    Rep ignored;
    step_windows(comm, w, config.ocn_couple_ratio,
                 [&](int n) { model.run_windows(n); },
                 [&](const char*) { (void)model.diagnostics(); }, ignored, {});
    (void)model.diagnostics();
    const std::uint64_t h = model.state_hash();
    if (comm.rank() == 0) hash = h;
  });
  return hash;
}

// --- traced ledger ------------------------------------------------------------

struct RankSpans {
  std::map<std::string, double> total;  ///< span name -> seconds
  double run_s = 0.0;                   ///< total of the driver's "run" span
  double explained_s = 0.0;             ///< named children of run* spans
};

bool structural(std::string_view name) {
  return name == "run" || name.rfind("run:", 0) == 0;
}

/// Per-rank span totals and attribution coverage. A span explains time when
/// its parent is one of the driver's structural spans ("run", "run:<phase>",
/// "run:<phase>:<comp>_run") and it is not structural itself — a component
/// sub-phase, a kernel, or a coupler operation.
std::map<int, RankSpans> collect_spans() {
  std::map<int, RankSpans> ranks;
  for (const auto& buffer : obs::buffers()) {
    if (buffer->rank() < 0 || buffer->event_count() == 0) continue;
    RankSpans& rs = ranks[buffer->rank()];
    for (const obs::SpanStats& s : buffer->aggregate_spans())
      rs.total[s.name] += s.total_seconds;
    const std::vector<std::string> names = buffer->names();
    std::vector<obs::SpanEvent> events = buffer->events();
    std::sort(events.begin(), events.end(),
              [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                return a.start_seconds < b.start_seconds ||
                       (a.start_seconds == b.start_seconds && a.depth < b.depth);
              });
    // Open ancestors by depth: the innermost span at depth d enclosing the
    // current start time.
    std::vector<const obs::SpanEvent*> open;
    for (const obs::SpanEvent& e : events) {
      const std::string& name = names[e.name_id];
      if (name == "run") rs.run_s += e.end_seconds - e.start_seconds;
      if (open.size() > e.depth) open.resize(e.depth);
      const obs::SpanEvent* parent =
          e.depth > 0 && open.size() == e.depth ? open.back() : nullptr;
      if (parent != nullptr && parent->end_seconds >= e.end_seconds &&
          structural(names[parent->name_id]) && !structural(name))
        rs.explained_s += e.end_seconds - e.start_seconds;
      while (open.size() < e.depth) open.push_back(nullptr);
      open.push_back(&e);
    }
  }
  return ranks;
}

double max_span(const std::map<int, RankSpans>& ranks, const std::string& name) {
  double m = 0.0;
  for (const auto& [r, rs] : ranks) {
    const auto it = rs.total.find(name);
    if (it != rs.total.end()) m = std::max(m, it->second);
  }
  return m;
}

/// Max over ranks of the summed totals of spans whose names start with
/// `prefix`.
double max_span_prefix(const std::map<int, RankSpans>& ranks,
                       const std::string& prefix) {
  double m = 0.0;
  for (const auto& [r, rs] : ranks) {
    double sum = 0.0;
    for (const auto& [name, s] : rs.total)
      if (name.rfind(prefix, 0) == 0) sum += s;
    m = std::max(m, sum);
  }
  return m;
}

/// Counters summed over every buffer, for every counter whose name starts
/// with `prefix`.
double counter_prefix(const std::string& prefix) {
  double sum = 0.0;
  for (const auto& buffer : obs::buffers())
    for (const auto& [name, value] : buffer->counters())
      if (name.rfind(prefix, 0) == 0 && !value.is_gauge) sum += value.value;
  return sum;
}

using Metrics = std::map<std::string, double>;

Metrics ledger(const WorkloadSpec& w, const Rep& rep) {
  const int ranks = w.ranks;
  const std::map<int, RankSpans> spans = collect_spans();
  Metrics m;
  m["coupler.run_s"] = rep.run_s;
  double self = 0.0, run = 0.0, explained = 0.0;
  for (const auto& [r, rs] : spans) {
    auto get = [&](const char* n) {
      const auto it = rs.total.find(n);
      return it == rs.total.end() ? 0.0 : it->second;
    };
    self = std::max(self, get("run:ocn_phase") - get("run:ocn_phase:ocn_run") +
                              get("run:atm_ice_phase") -
                              get("run:atm_ice_phase:atm_run") -
                              get("run:atm_ice_phase:ice_run"));
    run += rs.run_s;
    explained += rs.explained_s;
  }
  m["coupler.self_s"] = self;

  m["coupler.coverage"] = run > 0.0 ? explained / run : 0.0;
  m["coupler.shared_inputs_s"] = rep.shared_inputs_s;
  m["coupler.construct_s"] = rep.construct_s;

  m["ocn.run_s"] = max_span(spans, "run:ocn_phase:ocn_run");
  m["ocn.tracer_kernel_s"] = max_span(spans, "ocn:advect_diffuse:packed");
  m["ocn.steps"] = static_cast<double>(rep.ocn_steps);
  m["atm.run_s"] = max_span(spans, "run:atm_ice_phase:atm_run");
  m["atm.steps"] = static_cast<double>(rep.atm_steps);
  m["ice.run_s"] = max_span(spans, "run:atm_ice_phase:ice_run");

  double block_bytes = 0.0;
  for (int tag = 9101; tag <= 9105; ++tag)
    block_bytes += obs::total_counter("par:p2p:bytes:tag[" +
                                      std::to_string(tag) + "]");
  m["grid.block_halo_bytes"] = block_bytes;
  m["grid.graph_halo_bytes"] = obs::total_counter("par:p2p:bytes:tag[9106]");

  const double messages = obs::total_counter("par:p2p:messages");
  m["par.p2p_messages"] = messages;
  m["par.p2p_bytes"] = counter_prefix("par:p2p:bytes:tag[");
  m["par.msgs_per_step"] =
      rep.ocn_steps > 0 ? messages / (static_cast<double>(rep.ocn_steps) * ranks)
                        : 0.0;
  m["par.coll_calls"] = counter_prefix("par:coll:calls[");
  m["par.coll_bytes"] = counter_prefix("par:coll:bytes[");

  m["mct.rearrange_s"] = max_span_prefix(spans, "mct:rearrange:");
  m["mct.rearrange_bytes"] = obs::total_counter("par:p2p:bytes:tag[9300]");

  const double launches = counter_prefix("pp:launches:");
  const double items = counter_prefix("pp:items:");
  m["pp.launches"] = launches;
  m["pp.items"] = items;
  m["pp.items_per_launch"] = launches > 0.0 ? items / launches : 0.0;
  m["pp.pack_tiles"] = obs::total_counter("pp:pack:tiles");

  m["ai.engine_s"] = max_span(spans, "ai:engine:run");
  m["ai.cnn_s"] = max_span(spans, "ai:engine:cnn");
  m["ai.mlp_s"] = max_span(spans, "ai:engine:mlp");
  double engine_total = 0.0;
  for (const auto& [r, rs] : spans) {
    const auto it = rs.total.find("ai:engine:run");
    if (it != rs.total.end()) engine_total += it->second;
  }
  const double columns = counter_prefix("ai:engine:columns:");
  m["ai.columns_per_s"] = engine_total > 0.0 ? columns / engine_total : 0.0;
  m["ai.train_s"] = rep.train_s;
  m["tensor.conv1d_s"] = max_span(spans, "tensor:conv1d:packed");
  m["tensor.matmul_s"] = max_span(spans, "tensor:matmul_nt:packed");

  m["fleet.construct_s"] = rep.fleet_construct_s;
  m["fleet.run_s"] = w.members > 1 ? rep.run_s : 0.0;
  m["io.ckpt_call_s"] = rep.ckpt_call_s;
  m["io.ckpt_fence_s"] = rep.ckpt_fence_s;
  m["io.gather_s"] = max_span(spans, "io:subfile:gather");
  m["io.bytes_written"] = obs::total_counter("io:subfile:bytes_written");
  m["io.restore_call_s"] = rep.restore_s;
  m["io.read_s"] = max_span(spans, "io:subfile:read");

  double events = 0.0, dropped = 0.0;
  for (const auto& buffer : obs::buffers()) {
    events += static_cast<double>(buffer->event_count());
    dropped += static_cast<double>(buffer->dropped_events());
  }
  m["obs.events"] = events;
  m["obs.dropped_events"] = dropped;
  return m;
}

// --- layer probes -------------------------------------------------------------

constexpr int kProbeWarmup = 5;
constexpr int kProbeSamples = 41;
constexpr int kProbeTag = 9900;

/// Median over samples of the slowest rank's time for `op`, started from a
/// barrier on every rank (collective on `comm`), in microseconds.
double probe_us(const par::Comm& comm, const std::function<void()>& op) {
  std::vector<double> samples;
  for (int s = -kProbeWarmup; s < kProbeSamples; ++s) {
    comm.barrier();
    const double t0 = now_seconds();
    op();
    const double local = now_seconds() - t0;
    const double worst = comm.allreduce_value(local, par::ReduceOp::kMax);
    if (s >= 0) samples.push_back(worst);
  }
  return median(samples) * 1e6;
}

/// A randomly weighted suite with fitted normalizers and a fixed column
/// batch — the AI probe's input (no training needed to time inference).
struct AiFixture {
  static constexpr std::size_t kColumns = 256;
  std::shared_ptr<ai::AiPhysicsSuite> suite;
  tensor::Tensor columns;
  std::vector<double> tskin, coszr;

  explicit AiFixture(int levels, std::uint64_t seed)
      : columns({kColumns, 5, static_cast<std::size_t>(levels)}) {
    ai::SuiteConfig sc;
    sc.levels = levels;
    sc.cnn_hidden = 8;
    sc.mlp_hidden = 16;
    suite = std::make_shared<ai::AiPhysicsSuite>(sc);
    Rng rng(seed);
    const auto nlev = static_cast<std::size_t>(levels);
    tensor::Tensor tendencies({kColumns, 4, nlev}), fluxes({kColumns, 2});
    for (std::size_t s = 0; s < kColumns; ++s) {
      tskin.push_back(rng.uniform(270.0, 305.0));
      coszr.push_back(rng.uniform());
    }
    for (std::size_t i = 0; i < columns.size(); ++i)
      columns[i] = static_cast<float>(230.0 + 10.0 * rng.normal());
    for (std::size_t i = 0; i < tendencies.size(); ++i)
      tendencies[i] = static_cast<float>(1e-4 * rng.normal());
    for (std::size_t i = 0; i < fluxes.size(); ++i)
      fluxes[i] = static_cast<float>(350.0 + 40.0 * rng.normal());
    suite->fit_normalizers(columns, tendencies,
                           suite->make_rad_inputs(columns, tskin, coszr), fluxes);
    for (auto* model : {&suite->cnn().model(), &suite->mlp().model()}) {
      std::vector<float> weights = model->save_weights();
      for (float& v : weights) v = static_cast<float>(0.1 * rng.normal());
      model->load_weights(weights);
    }
  }
};

Metrics run_probes(const WorkloadSpec& w, const Rep& rep, Checks& checks) {
  Metrics m;
  const cpl::CoupledConfig config = make_config(w);
  par::run(w.ranks, [&](par::Comm& comm) {
    const bool root = comm.rank() == 0;
    const int nx = w.ocn.nx, ny = w.ocn.ny;

    // BlockHalo on the ocean's decomposition: one field, then the nz
    // back-to-back single-field exchanges of the tracer_step pattern.
    const grid::BlockCuts cuts =
        grid::BlockPartition2D::balanced(nx, ny, comm.size()).cuts();
    const grid::BlockHalo block(comm, nx, ny, cuts, /*north_fold=*/true);
    const std::size_t slots = static_cast<std::size_t>(block.nx_local() + 2) *
                              static_cast<std::size_t>(block.ny_local() + 2);
    std::vector<std::vector<double>> levels(
        static_cast<std::size_t>(w.ocn.nz),
        std::vector<double>(slots, static_cast<double>(comm.rank())));
    const double block_us = probe_us(comm, [&] { block.exchange(levels[0]); });
    const double stack_us = probe_us(comm, [&] {
      for (auto& f : levels) block.exchange(f);
    });

    // GraphHalo on the atmosphere's decomposition, one exchange per level.
    const atm::LocalMesh mesh(comm, *rep.shared->mesh());
    std::vector<std::vector<double>> atm_levels(
        static_cast<std::size_t>(w.nlev),
        std::vector<double>(mesh.num_slots(), 1.0));
    const double graph_us = probe_us(comm, [&] {
      for (auto& f : atm_levels) mesh.exchange(f);
    });

    // Transport: a 2-rank round trip of one ocean halo row, and a scalar
    // allreduce over every rank.
    std::vector<double> row(static_cast<std::size_t>(block.nx_local()), 1.0);
    const double pingpong_us = probe_us(comm, [&] {
      const std::span<double> buf(row);
      if (comm.rank() == 0) {
        comm.send(std::span<const double>(row), 1, kProbeTag);
        comm.recv(buf, 1, kProbeTag);
      } else if (comm.rank() == 1) {
        comm.recv(buf, 0, kProbeTag);
        comm.send(std::span<const double>(row), 0, kProbeTag);
      }
    });
    double sink = 0.0;
    const double allreduce_us = probe_us(comm, [&] {
      sink += comm.allreduce_value(1.0, par::ReduceOp::kSum);
    });

    // Regrid: the coupler's distributed operators over the shared-context
    // matrices, on a model built for this decomposition.
    cpl::ScenarioSpec spec;
    spec.config = config;
    spec.shared = rep.shared;
    const cpl::CoupledModel model(comm, spec);
    const auto& plans = *model.coupling_plans();
    const std::vector<double> atm_src(
        static_cast<std::size_t>(plans.atm_map.local_size(comm.rank())), 290.0);
    const std::vector<double> ocn_src(
        static_cast<std::size_t>(plans.ocn_map.local_size(comm.rank())), 290.0);
    std::vector<double> a2o_out, o2a_out;
    const double a2o_us = probe_us(comm, [&] { a2o_out = plans.a2o->apply(atm_src); });
    const double o2a_us = probe_us(comm, [&] { o2a_out = plans.o2a->apply(ocn_src); });
    bool regrid_ok = true;
    for (double v : a2o_out) regrid_ok = regrid_ok && std::isfinite(v);
    for (double v : o2a_out) regrid_ok = regrid_ok && std::isfinite(v);

    // AI inference on a fixed batch, one engine per rank as in fleet_ai.
    AiFixture fx(w.nlev, 2026 + static_cast<std::uint64_t>(comm.rank()));
    ai::InferenceEngine engine(*fx.suite);
    bool ai_ok = true;
    const double ai_us = probe_us(comm, [&] {
      const ai::SuiteOutput out = engine.run(fx.columns, fx.tskin, fx.coszr);
      ai_ok = ai_ok && out.fluxes.size() == 2 * AiFixture::kColumns;
    });

    const int all_ok = comm.allreduce_value(regrid_ok && ai_ok && sink > 0.0 ? 1 : 0,
                                            par::ReduceOp::kMin);
    if (root) {
      m["grid.block_halo_us"] = block_us;
      m["grid.block_halo_stack_us"] = stack_us;
      m["grid.graph_halo_us"] = graph_us;
      m["par.pingpong_us"] = pingpong_us;
      m["par.allreduce_us"] = allreduce_us;
      m["mct.regrid_a2o_us"] = a2o_us;
      m["mct.regrid_o2a_us"] = o2a_us;
      m["ai.probe_columns_per_s"] =
          static_cast<double>(comm.size() * AiFixture::kColumns) / (ai_us * 1e-6);
      m["probe.samples"] = kProbeSamples;
      checks.expect(all_ok == 1, w.name + ": probe outputs are finite");
    }
  });
  return m;
}

// --- passes -------------------------------------------------------------------

/// The cores this process may use, and the one every run is confined to.
struct Cores {
  cpu_set_t all;
  cpu_set_t one;
};

/// Applies to the calling thread and every thread it starts afterwards.
void set_cores(const cpu_set_t& cores) {
  if (sched_setaffinity(0, sizeof(cores), &cores) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

/// Confines the process to its last allowed core. On a shared virtual host,
/// rank threads spread over cores wait on each other through cross-core
/// wake-ups whose latency follows the neighbours' load: the same 4-rank run
/// measured anywhere from 34 to 199 SYPD. On one core the ranks hand off by
/// thread switches and repeat within a few percent.
Cores pin_to_one_core() {
  Cores c{};
  if (sched_getaffinity(0, sizeof(c.all), &c.all) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &c.all)) last = cpu;
  CPU_ZERO(&c.one);
  CPU_SET(last, &c.one);
  set_cores(c.one);
  return c;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-metric medians over a list of metric maps with identical keys.
Metrics median_metrics(const std::vector<Metrics>& all) {
  Metrics out;
  for (const auto& [name, v] : all.front()) {
    std::vector<double> vals;
    for (const Metrics& m : all) vals.push_back(m.at(name));
    out[name] = median(vals);
  }
  return out;
}

void print_result(const Checks& checks, const Metrics& metrics,
                  const std::map<std::string, std::string>& units) {
  for (const auto& [name, v] : metrics)
    std::printf("  %-28s %.6g %s\n", name.c_str(), v, units.at(name).c_str());
  const double ratio = checks.attempted() > 0
                           ? static_cast<double>(checks.failed()) /
                                 static_cast<double>(checks.attempted())
                           : 0.0;
  std::printf("  %-28s %.6g (%lld of %lld checks failed)\n", "fail_ratio",
              ratio, checks.failed(), checks.attempted());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false", checks.attempted(),
              checks.failed());
  bool first = true;
  for (const auto& [name, v] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, units.at(name).c_str());
    first = false;
  }
  std::printf("}}\n");
}

const std::map<std::string, std::string>& metric_units() {
  static const std::map<std::string, std::string> units = {
      {"sypd", "SYPD"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
      {"coupler.run_s", "s"}, {"coupler.self_s", "s"},
      {"coupler.coverage", "ratio"}, {"coupler.shared_inputs_s", "s"},
      {"coupler.construct_s", "s"}, {"ocn.run_s", "s"},
      {"ocn.tracer_kernel_s", "s"}, {"ocn.steps", "count"},
      {"atm.run_s", "s"}, {"atm.steps", "count"}, {"ice.run_s", "s"},
      {"grid.block_halo_bytes", "bytes"}, {"grid.graph_halo_bytes", "bytes"},
      {"grid.block_halo_us", "us"}, {"grid.block_halo_stack_us", "us"},
      {"grid.graph_halo_us", "us"}, {"par.p2p_messages", "count"},
      {"par.p2p_bytes", "bytes"}, {"par.msgs_per_step", "count"},
      {"par.coll_calls", "count"}, {"par.coll_bytes", "bytes"},
      {"par.pingpong_us", "us"}, {"par.allreduce_us", "us"},
      {"par.speedup_4v1", "ratio"}, {"mct.rearrange_s", "s"},
      {"mct.rearrange_bytes", "bytes"}, {"mct.regrid_a2o_us", "us"},
      {"mct.regrid_o2a_us", "us"}, {"pp.launches", "count"},
      {"pp.items", "count"}, {"pp.items_per_launch", "count"},
      {"pp.pack_tiles", "count"}, {"ai.engine_s", "s"}, {"ai.cnn_s", "s"},
      {"ai.mlp_s", "s"}, {"ai.columns_per_s", "1/s"},
      {"ai.probe_columns_per_s", "1/s"}, {"ai.train_s", "s"},
      {"tensor.conv1d_s", "s"}, {"tensor.matmul_s", "s"},
      {"fleet.construct_s", "s"}, {"fleet.run_s", "s"},
      {"io.ckpt_call_s", "s"}, {"io.ckpt_fence_s", "s"},
      {"io.gather_s", "s"}, {"io.bytes_written", "bytes"},
      {"io.restore_call_s", "s"}, {"io.read_s", "s"},
      {"obs.overhead_frac", "ratio"}, {"obs.events", "count"},
      {"obs.dropped_events", "count"}, {"probe.samples", "count"},
  };
  return units;
}

int untraced_pass(const WorkloadSpec& w, const Scenario& sc, double seconds) {
  Checks checks;
  obs::set_enabled(false);
  const double deadline = now_seconds() + seconds;
  std::vector<double> setup, sypd;
  std::uint64_t first_hash = 0;
  do {
    const std::string label = w.name + " rep " + std::to_string(setup.size());
    const Rep rep = run_rep(w, sc, w.ranks, checks, label);
    if (setup.empty()) first_hash = rep.hash;
    else
      checks.expect(rep.hash == first_hash,
                    label + ": final state hash repeats for the same seed");
    setup.push_back(rep.setup_s);
    sypd.push_back(rep.sypd());
    std::fprintf(stderr,
                 "%s: setup %.3f s (shared inputs %.3f, construct %.3f), "
                 "stepping %.3f s, %.2f SYPD\n",
                 label.c_str(), rep.setup_s, rep.shared_inputs_s,
                 rep.construct_s, rep.run_s + rep.restore_s + rep.resume_s,
                 rep.sypd());
  } while (now_seconds() < deadline || setup.size() < 3);
  std::printf("%s untraced: %zu repetitions\n", w.name.c_str(), setup.size());
  print_result(checks,
               {{"sypd", median(sypd)},
                {"setup_s", median(setup)},
                {"peak_rss_mb", peak_rss_mb()}},
               metric_units());
  return 0;
}

int traced_pass(const WorkloadSpec& w, const Scenario& sc, double seconds,
                const Cores& cores) {
  Checks checks;
  const double deadline = now_seconds() + seconds;
  std::vector<double> plain_wall, traced_wall;
  std::vector<Metrics> ledgers;
  std::uint64_t first_hash = 0;
  Rep last;
  int reps = 0;
  // Alternate obs-off and obs-on repetitions so drift hits both equally.
  do {
    for (const bool traced : {false, true}) {
      const std::string label = w.name + (traced ? " traced" : " untraced") +
                                " rep " + std::to_string(reps);
      obs::set_enabled(traced);
      obs::reset_all();
      const Rep rep = run_rep(w, sc, w.ranks, checks, label);
      obs::set_enabled(false);
      if (reps == 0 && !traced) first_hash = rep.hash;
      else
        checks.expect(rep.hash == first_hash,
                      label + ": hash equals the first untraced run's "
                              "(obs on = off, repeatable)");
      if (traced) {
        traced_wall.push_back(rep.run_s + rep.restore_s + rep.resume_s);
        ledgers.push_back(ledger(w, rep));
      } else {
        plain_wall.push_back(rep.run_s + rep.restore_s + rep.resume_s);
      }
      last = rep;
    }
    ++reps;
  } while (now_seconds() < deadline || reps < 2);
  obs::set_enabled(false);

  Metrics m = median_metrics(ledgers);
  m["obs.overhead_frac"] = median(traced_wall) / median(plain_wall) - 1.0;

  const Metrics probes = run_probes(w, last, checks);
  m.insert(probes.begin(), probes.end());

  m["par.speedup_4v1"] = 0.0;
  if (w.name == "coupled_ocn") {
    // The same problem on 4 ranks against a plain single-rank baseline,
    // both free to use every core: medians of three alternating pairs.
    set_cores(cores.all);
    std::vector<double> four, one;
    for (int pair = 0; pair < 3; ++pair) {
      four.push_back(run_rep(w, sc, 4, checks, w.name + " 4-rank run").sypd());
      one.push_back(run_rep(w, sc, 1, checks, w.name + " 1-rank run").sypd());
    }
    set_cores(cores.one);
    m["par.speedup_4v1"] = median(four) / median(one);
  }
  if (w.members > 1)
    checks.expect(solo_member0_hash(w, sc, last) == first_hash,
                  w.name + ": member 0 equals its solo run");

  std::printf("%s traced: %d untraced + %d traced repetitions\n",
              w.name.c_str(), reps, reps);
  print_result(checks, m, metric_units());
  return 0;
}

bool parse(int argc, char** argv, Options& o) {
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const char* v = argv[a + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o.trace = v[0] - '0';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0 &&
         o.trace >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: ap3_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  for (const WorkloadSpec& w : workloads()) {
    if (w.name != o.workload) continue;
    try {
      const Cores cores = pin_to_one_core();
      const Scenario sc = make_scenario(o.seed);
      std::printf("%s: %d ranks, atm mesh_n %d x %d levels, ocn %dx%dx%d, "
                  "%d windows per repetition; vortex %.2fE %.2fN r=%.0f km "
                  "%.1f m/s\n",
                  w.name.c_str(), w.ranks, w.mesh_n, w.nlev, w.ocn.nx, w.ocn.ny,
                  w.ocn.nz, w.windows, sc.vortex.lon_deg, sc.vortex.lat_deg,
                  sc.vortex.radius_km, sc.vortex.max_wind_ms);
      return o.trace == 1 ? traced_pass(w, sc, o.seconds, cores)
                          : untraced_pass(w, sc, o.seconds);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "error: unknown workload '%s'\n", o.workload.c_str());
  return 2;
}
