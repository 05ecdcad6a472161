// Quickstart: build the fully coupled AP3ESM at toy resolution, run coupling
// windows, and print global diagnostics.
//
//   ./quickstart [nranks] [--windows N] [--overlap] [--rebalance-every N]
//               [--straggler <comp>:<seconds_per_point>] [--ensemble N]
//               [--trace out.json]
//               [--checkpoint-every N] [--checkpoint-dir DIR] [--restore DIR]
//               [--checkpoint-async] [--checkpoint-codec fp64|gs]
//               [--ai-backend=serial|threads|cpe] [--ai-precision=fp64|fp32|gs]
//               [--supernode-size N] [--coll-algo flat|hier]
//
// Demonstrates the public API end to end: configuration, the coupled driver
// with its CPL7-style clock, collective diagnostics, and checkpoint/restart.
// With --checkpoint-every N a versioned snapshot is written to DIR (default
// ./ap3_checkpoint) every N windows; --restore DIR resumes from a snapshot,
// bit-identical to the uninterrupted run (the final state hash printed at
// the end is the witness). --checkpoint-async streams each snapshot: the
// state is gathered at the boundary but encoded and written on a background
// task lane while the model keeps stepping, with a completion fence at the
// next checkpoint boundary. --checkpoint-codec gs stores section payloads
// as fp32 + per-group power-of-two fp64 scales (~2x smaller, ULP-bound
// verified at encode time; RNG/step-counter sections stay fp64). Passing --ai-backend and/or --ai-precision swaps
// the conventional physics for a freshly trained AI suite routed through the
// batched inference engine on the chosen execution space and precision policy
// (any combination produces the same physics answer: backends are bit-exact
// at a given policy, and group-scaled storage round-trips fp32 losslessly).
// --straggler (repeatable) installs a synthetic busy band on the named
// component — atm, ocn, or ice — sleeping seconds_per_point per affected
// point per step and reporting the slept time on the component's
// <comp>:busy_seconds channel; pair it with --rebalance-every to watch the
// load balancer shed columns off the slow ranks (the final state hash is
// unchanged either way). With --trace, the observability layer's
// Chrome-trace export (one timeline row per simulated rank; open in
// chrome://tracing or Perfetto) is written after the run, along with the
// getTiming-style SYPD report derived from the same spans.
//
// With --ensemble N (N > 1) the run becomes an in-process ensemble: one
// immutable SharedInputs context (mesh, ocean grid, regrid matrices, and —
// with AI flags — frozen trained weights) is built once on the main thread,
// then every rank serves N perturbed CoupledModel members from it through an
// EnsembleFleet. Member 0 is the unperturbed control; members k > 0 start
// from a decomposition-invariant temperature perturbation. The fleet prints
// per-member diagnostics and state hashes plus the aggregate members x SYPD.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ai/engine.hpp"
#include "base/error.hpp"
#include "atm/physics.hpp"
#include "coupler/driver.hpp"
#include "fleet/fleet.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"
#include "par/topology.hpp"

namespace {

constexpr const char* kUsage =
    "usage: quickstart [nranks] [--windows N] [--overlap]\n"
    "                  [--rebalance-every N]\n"
    "                  [--straggler atm|ocn|ice:<seconds_per_point>]\n"
    "                  [--ensemble N]\n"
    "                  [--trace out.json]\n"
    "                  [--checkpoint-every N] [--checkpoint-dir DIR]\n"
    "                  [--restore DIR]\n"
    "                  [--checkpoint-async] [--checkpoint-codec fp64|gs]\n"
    "                  [--ai-backend=serial|threads|cpe]\n"
    "                  [--ai-precision=fp64|fp32|gs]\n"
    "                  [--supernode-size N] [--coll-algo flat|hier]\n";

/// Accepts both `--flag value` and `--flag=value`; returns nullptr when argv[a]
/// is not `flag` at all, otherwise the value (advancing `a` for the two-token
/// form).
const char* flag_value(int argc, char** argv, int& a, const char* flag) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(argv[a], flag, n) != 0) return nullptr;
  if (argv[a][n] == '=') return argv[a] + n + 1;
  if (argv[a][n] != '\0') return nullptr;  // e.g. --ai-backendish
  if (a + 1 >= argc) {
    std::fprintf(stderr, "error: %s requires a value\n%s", flag, kUsage);
    std::exit(2);
  }
  return argv[++a];
}

bool parse_backend(const char* v, ap3::pp::ExecSpace& out) {
  if (std::strcmp(v, "serial") == 0) out = ap3::pp::ExecSpace::kSerial;
  else if (std::strcmp(v, "threads") == 0) out = ap3::pp::ExecSpace::kHostThreads;
  else if (std::strcmp(v, "cpe") == 0) out = ap3::pp::ExecSpace::kSunwayCPE;
  else return false;
  return true;
}

/// Applies one `--straggler <comp>:<seconds_per_point>` spec: a synthetic busy
/// band over the upper half of the named component's domain, reported on its
/// <comp>:busy_seconds channel. Throws ap3::ConfigError on an unknown
/// component or a malformed value — fail fast, before any rank spins up.
void apply_straggler(ap3::cpl::CoupledConfig& config, const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos)
    throw ap3::ConfigError("--straggler expects <component>:<seconds_per_point>"
                           ", got '" + spec + "'");
  const std::string comp = spec.substr(0, colon);
  const char* num = spec.c_str() + colon + 1;
  char* end = nullptr;
  const double spp = std::strtod(num, &end);
  if (end == num || *end != '\0' || !(spp >= 0.0))
    throw ap3::ConfigError("--straggler " + comp +
                           ": seconds_per_point must be a non-negative number"
                           ", got '" + std::string(num) + "'");
  if (comp == "atm") {
    config.atm.stall_seconds_per_point = spp;
    config.atm.stall_cell_begin =
        10ll * config.atm.mesh_n * config.atm.mesh_n;  // upper half of 20n^2
  } else if (comp == "ocn") {
    config.ocn.stall_seconds_per_point = spp;
    config.ocn.stall_i_begin = config.ocn.grid.nx / 2;
  } else if (comp == "ice") {
    config.ice.stall_seconds_per_point = spp;
    config.ice.stall_i_begin = config.ocn.grid.nx / 2;
  } else {
    throw ap3::ConfigError("--straggler: unknown component '" + comp +
                           "' (expected atm, ocn, or ice)");
  }
}

bool parse_precision(const char* v, ap3::ai::PrecisionPolicy& out) {
  if (std::strcmp(v, "fp64") == 0) out = ap3::ai::PrecisionPolicy::kFp64;
  else if (std::strcmp(v, "fp32") == 0) out = ap3::ai::PrecisionPolicy::kFp32;
  else if (std::strcmp(v, "gs") == 0) out = ap3::ai::PrecisionPolicy::kGroupScaled;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ap3;
  int nranks = 2;
  int windows = 0;  // 0: one simulated day
  int rebalance_every = 0;
  int ensemble = 1;
  int checkpoint_every = 0;
  bool checkpoint_async = false;
  std::string checkpoint_codec;  // "", "fp64", "gs"
  std::string checkpoint_dir = "ap3_checkpoint";
  std::string restore_dir;
  std::string trace_path;
  std::vector<std::string> stragglers;
  bool overlap = false;
  bool use_ai = false;
  int supernode_size = 0;  // 0: no explicit topology (flat collectives)
  std::string coll_algo;   // "", "flat", "hier"
  ai::EngineConfig ai_engine;  // kSerial / fp32 unless flags say otherwise
  for (int a = 1; a < argc; ++a) {
    auto option_value = [&](const char* flag) -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n%s", flag, kUsage);
        std::exit(2);
      }
      return argv[++a];
    };
    if (const char* v = flag_value(argc, argv, a, "--ai-backend")) {
      if (!parse_backend(v, ai_engine.space)) {
        std::fprintf(stderr, "error: unknown --ai-backend '%s'\n%s", v, kUsage);
        return 2;
      }
      use_ai = true;
    } else if (const char* v = flag_value(argc, argv, a, "--ai-precision")) {
      if (!parse_precision(v, ai_engine.precision)) {
        std::fprintf(stderr, "error: unknown --ai-precision '%s'\n%s", v,
                     kUsage);
        return 2;
      }
      use_ai = true;
    } else if (const char* v = flag_value(argc, argv, a, "--straggler")) {
      stragglers.emplace_back(v);  // repeatable; one component each
    } else if (std::strcmp(argv[a], "--trace") == 0) {
      trace_path = option_value("--trace");
    } else if (std::strcmp(argv[a], "--overlap") == 0) {
      overlap = true;
    } else if (std::strcmp(argv[a], "--windows") == 0) {
      windows = std::atoi(option_value("--windows"));
      if (windows <= 0) {
        std::fprintf(stderr, "error: --windows must be positive\n%s", kUsage);
        return 2;
      }
    } else if (std::strcmp(argv[a], "--rebalance-every") == 0) {
      rebalance_every = std::atoi(option_value("--rebalance-every"));
      if (rebalance_every <= 0) {
        std::fprintf(stderr, "error: --rebalance-every must be positive\n%s",
                     kUsage);
        return 2;
      }
    } else if (std::strcmp(argv[a], "--ensemble") == 0) {
      ensemble = std::atoi(option_value("--ensemble"));
      if (ensemble <= 0) {
        std::fprintf(stderr, "error: --ensemble must be positive\n%s", kUsage);
        return 2;
      }
    } else if (std::strcmp(argv[a], "--checkpoint-every") == 0) {
      checkpoint_every = std::atoi(option_value("--checkpoint-every"));
      if (checkpoint_every <= 0) {
        std::fprintf(stderr, "error: --checkpoint-every must be positive\n%s",
                     kUsage);
        return 2;
      }
    } else if (std::strcmp(argv[a], "--supernode-size") == 0) {
      supernode_size = std::atoi(option_value("--supernode-size"));
      if (supernode_size <= 0) {
        std::fprintf(stderr, "error: --supernode-size must be positive\n%s",
                     kUsage);
        return 2;
      }
    } else if (std::strcmp(argv[a], "--coll-algo") == 0) {
      coll_algo = option_value("--coll-algo");
      if (coll_algo != "flat" && coll_algo != "hier") {
        std::fprintf(stderr, "error: unknown --coll-algo '%s'\n%s",
                     coll_algo.c_str(), kUsage);
        return 2;
      }
    } else if (std::strcmp(argv[a], "--checkpoint-async") == 0) {
      checkpoint_async = true;
    } else if (const char* v = flag_value(argc, argv, a, "--checkpoint-codec")) {
      checkpoint_codec = v;
      if (checkpoint_codec != "fp64" && checkpoint_codec != "gs") {
        std::fprintf(stderr, "error: unknown --checkpoint-codec '%s'\n%s", v,
                     kUsage);
        return 2;
      }
    } else if (std::strcmp(argv[a], "--checkpoint-dir") == 0) {
      checkpoint_dir = option_value("--checkpoint-dir");
    } else if (std::strcmp(argv[a], "--restore") == 0) {
      restore_dir = option_value("--restore");
    } else {
      nranks = std::atoi(argv[a]);
      if (nranks <= 0) {
        std::fprintf(stderr, "error: invalid rank count '%s'\n%s", argv[a],
                     kUsage);
        return 2;
      }
    }
  }

  if (ensemble > 1 && (!restore_dir.empty() || checkpoint_every > 0 ||
                       rebalance_every > 0)) {
    std::fprintf(stderr,
                 "error: --ensemble is incompatible with --restore, "
                 "--checkpoint-every, and --rebalance-every\n%s",
                 kUsage);
    return 2;
  }

  cpl::CoupledConfig config;
  config.atm.mesh_n = 6;                                // 720 cells
  config.atm.nlev = 10;
  config.ocn.grid = grid::TripolarConfig{48, 36, 10};   // toy tripolar grid
  config.layout = cpl::Layout::kSequential;
  config.overlap = overlap;  // bit-exact either way; see CoupledConfig::overlap
  // Bit-exact either way too: migration moves columns, never values. The
  // stock hysteresis policy applies, so a balanced toy run simply never
  // migrates.
  config.rebalance_every = rebalance_every;
  if (checkpoint_codec == "gs")
    config.checkpoint.codec.codec = io::Codec::kGroupScaled;
  if (checkpoint_every > 0 && checkpoint_dir.empty()) {
    std::fprintf(stderr, "error: --checkpoint-dir must not be empty\n%s",
                 kUsage);
    return 2;
  }
  if ((checkpoint_async || !checkpoint_codec.empty()) && checkpoint_every == 0)
    std::printf("note: --checkpoint-async/--checkpoint-codec take effect "
                "with --checkpoint-every\n");
  else if (checkpoint_every > 0)
    std::printf("checkpointing every %d windows to %s (%s, codec %s)\n",
                checkpoint_every, checkpoint_dir.c_str(),
                checkpoint_async ? "streaming async" : "sync",
                checkpoint_codec == "gs" ? "group-scaled fp32+scales"
                                         : "fp64");

  try {
    for (const std::string& spec : stragglers) apply_straggler(config, spec);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 2;
  }
  for (const std::string& spec : stragglers)
    std::printf("straggler: %s (synthetic busy band, upper half)\n",
                spec.c_str());

  std::printf("AP3ESM quickstart: %d ranks, atm %zu cells x %d levels, "
              "ocn %dx%dx%d\n",
              nranks, static_cast<size_t>(20 * config.atm.mesh_n * config.atm.mesh_n),
              config.atm.nlev, config.ocn.grid.nx, config.ocn.grid.ny,
              config.ocn.grid.nz);

  // Collective topology: --supernode-size attaches a par::Topology (ranks
  // clustered into supernodes) so collectives can stage through supernode
  // leaders; --coll-algo picks the default wire algorithm. The coupled state
  // hash is identical either way — only the message pattern changes.
  const bool want_topology = supernode_size > 0 || !coll_algo.empty();
  auto topo_comm = [&](par::Comm& base) -> par::Comm {
    if (!want_topology) return base;
    auto topo = std::make_shared<par::Topology>(
        par::Topology::clustered(base.size(), supernode_size));
    return base.with_topology(topo, coll_algo == "flat"
                                        ? par::CollectiveAlgo::kFlat
                                        : par::CollectiveAlgo::kHierarchical);
  };
  if (want_topology)
    std::printf("collective topology: supernode size %d, algorithm %s\n",
                supernode_size > 0 ? supernode_size : 256,
                coll_algo == "flat" ? "flat" : "hierarchical");

  if (use_ai)
    std::printf("AI physics: backend=%s precision=%s (batched inference "
                "engine, micro-batch %zu)\n",
                pp::to_string(ai_engine.space), ai::to_string(ai_engine.precision),
                ai_engine.micro_batch);

  if (ensemble > 1) {
    // Ensemble fleet path: build the immutable shared context ONCE on the
    // main thread (mesh, ocean grid, regrid matrices, and — with AI — the
    // frozen trained weights); every rank thread serves all N members from
    // it. Member construction, perturbation, and the round-robin scheduler
    // live in ap3::fleet::EnsembleFleet.
    std::shared_ptr<const cpl::SharedInputs> shared;
    if (use_ai) {
      atm::ConventionalPhysics conventional;
      const atm::TrainingData data = atm::generate_training_data(
          conventional, 16, 4, static_cast<std::size_t>(config.atm.nlev), 11,
          config.atm.model_dt_seconds());
      ai::SuiteConfig suite_config;
      suite_config.levels = config.atm.nlev;
      suite_config.cnn_hidden = 8;
      suite_config.mlp_hidden = 16;
      const atm::TrainedSuite trained =
          atm::train_ai_physics(data, suite_config, 6, 3e-3f);
      std::printf("  trained toy suite: tendency R2 %.3f, flux R2 %.3f "
                  "(weights frozen into the shared context)\n",
                  trained.tendency_r2, trained.flux_r2);
      shared = cpl::build_shared_inputs(config, *trained.suite);
    } else {
      shared = cpl::build_shared_inputs(config);
    }
    std::printf("ensemble fleet: %d members per rank over one shared "
                "context (%zu resident bytes, vs %zu replicated)\n",
                ensemble, shared->resident_bytes(),
                static_cast<std::size_t>(ensemble) * shared->resident_bytes());

    par::run(nranks, [&](par::Comm& base) {
      par::Comm comm = topo_comm(base);
      fleet::EnsembleFleet fl(
          comm, fleet::EnsembleFleet::perturbed_specs(config, ensemble,
                                                      shared, 9000));
      if (use_ai) {
        cpl::AiInstallOptions opts;
        opts.engine = ai_engine;  // suite thawed from the frozen weights
        fl.install_ai_physics(opts);
      }
      const double window = fl.member(0).atm_window_seconds();
      const int total_windows =
          windows > 0 ? windows : static_cast<int>(86400.0 / window) + 1;
      const auto t0 = std::chrono::steady_clock::now();
      fl.run_windows(total_windows);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const auto hashes = fl.state_hashes();  // collective
      const auto diags = fl.diagnostics();    // collective
      if (comm.rank() == 0) {
        std::printf("\n  member     seed   mean SST [K]   ice frac   "
                    "state hash\n");
        for (std::size_t k = 0; k < fl.size(); ++k)
          std::printf("  %-9s  %5llu   %12.3f   %8.4f   %016llx\n",
                      fl.spec(k).name.c_str(),
                      static_cast<unsigned long long>(
                          fl.spec(k).perturbation_seed),
                      diags[k].mean_sst_k, diags[k].ice_fraction,
                      static_cast<unsigned long long>(hashes[k]));
        cpl::TimingSummary timing;
        timing.simulated_seconds = total_windows * window;
        timing.wall_seconds = wall;
        const double sypd = timing.sypd();
        std::printf("\nensemble finished: %d members x %d windows in %.2f s"
                    "\naggregate throughput: %.4f members x SYPD\n",
                    ensemble, total_windows, wall, ensemble * sypd);
      }
    });
    return 0;
  }

  std::atomic<int> exit_code{0};
  par::run(nranks, [&](par::Comm& base) {
    par::Comm comm = topo_comm(base);
    cpl::CoupledModel model(comm, config);
    if (use_ai) {
      // Each rank trains the same tiny suite deterministically (no RNG state
      // is shared across rank threads), then routes it through the engine on
      // the requested backend/precision.
      atm::ConventionalPhysics conventional;
      const atm::TrainingData data = atm::generate_training_data(
          conventional, 16, 4, static_cast<std::size_t>(config.atm.nlev), 11,
          config.atm.model_dt_seconds());
      ai::SuiteConfig suite_config;
      suite_config.levels = config.atm.nlev;
      suite_config.cnn_hidden = 8;
      suite_config.mlp_hidden = 16;
      const atm::TrainedSuite trained =
          atm::train_ai_physics(data, suite_config, 6, 3e-3f);
      model.install_ai_physics(cpl::AiInstallOptions{trained.suite, ai_engine,
                                                     std::nullopt});
      if (comm.rank() == 0)
        std::printf("  trained toy suite: tendency R2 %.3f, flux R2 %.3f\n",
                    trained.tendency_r2, trained.flux_r2);
    }
    const double window = model.atm_window_seconds();
    const int total_windows =
        windows > 0 ? windows : static_cast<int>(86400.0 / window) + 1;

    if (!restore_dir.empty()) {
      try {
        model.restore(restore_dir);
      } catch (const Error& e) {
        if (comm.rank() == 0)
          std::fprintf(stderr, "error: cannot restore from '%s': %s\n",
                       restore_dir.c_str(), e.what());
        exit_code = 1;
        return;
      }
      if (comm.rank() == 0)
        std::printf("restored from %s at window %lld\n", restore_dir.c_str(),
                    model.windows_run());
    }

    if (comm.rank() == 0)
      std::printf("coupling window %.0f s (running to window %d; ocean "
                  "couples every %d)\n\n  window   mean SST [K]   "
                  "max current [m/s]   ice frac   mean precip [kg/m2/s]\n",
                  window, total_windows, config.ocn_couple_ratio);

    // Window-by-window so checkpoints can land on any boundary; diagnostics
    // print four times over the run as before.
    const int report_every = total_windows >= 4 ? total_windows / 4 : 1;
    while (model.windows_run() < total_windows) {
      model.run_windows(1);
      const auto w = model.windows_run();
      if (checkpoint_every > 0 && w % checkpoint_every == 0 &&
          w < total_windows) {
        // Async: the snapshot is gathered here but encoded/written on the
        // background lane; reusing one directory makes the next boundary
        // the completion fence (the writer never races itself).
        if (checkpoint_async)
          model.checkpoint_async(checkpoint_dir);
        else
          model.checkpoint(checkpoint_dir);
        if (comm.rank() == 0)
          std::printf("  checkpoint at window %lld -> %s%s\n", w,
                      checkpoint_dir.c_str(),
                      checkpoint_async ? " (streaming)" : "");
      }
      if (w % report_every == 0 || w == total_windows) {
        const cpl::CoupledDiagnostics diag = model.diagnostics();
        if (comm.rank() == 0)
          std::printf("  %6lld   %10.3f   %17.4f   %8.4f   %.3e\n", w,
                      diag.mean_sst_k, diag.max_surface_current,
                      diag.ice_fraction, diag.mean_precip);
      }
    }
    model.checkpoint_wait();  // fence any in-flight streaming snapshot
    const std::uint64_t hash = model.state_hash();  // collective
    if (comm.rank() == 0)
      std::printf("\nquickstart finished: %lld atmosphere windows, %lld "
                  "atmosphere steps, %lld ocean baroclinic steps\n"
                  "final state hash: %016llx\n",
                  model.windows_run(),
                  model.has_atm() ? model.atm().model_steps() : 0,
                  model.has_ocn() ? model.ocn().baroclinic_steps() : 0,
                  static_cast<unsigned long long>(hash));
    if (config.rebalance_every > 0 && comm.rank() == 0)
      std::printf("load rebalancing: %lld migration(s)\n",
                  model.rebalance_migrations());

    const cpl::TimingSummary timing = model.timing_summary();
    if (comm.rank() == 0) std::printf("\n%s", timing.to_string().c_str());
  });
  if (exit_code != 0) return exit_code.load();

  if (!trace_path.empty()) {
    try {
      obs::write_chrome_trace(trace_path);
    } catch (const std::exception& e) {
      // The run itself succeeded; don't abort over a bad trace path.
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("chrome trace (open in chrome://tracing): %s\n",
                trace_path.c_str());
  }
  return 0;
}
