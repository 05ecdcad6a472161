// CPL7-style coupled driver — the AP3ESM top level (§5.1).
//
// Integrates the four components through MCT machinery:
//   - GlobalSegMaps over the global communicator describe every component's
//     decomposition (ranks outside a component's task domain own nothing),
//   - RegridOps (sparse interpolation) move fields between the icosahedral
//     atmosphere mesh and the tripolar ocean grid,
//   - a Rearranger-style router moves same-grid fields between the ocean's
//     and the ice's decompositions,
//   - the coupler computes air–sea fluxes (fluxes.hpp) and owns the clock.
//
// Task layouts (§5.1.2, §7.2): kSequential runs every component on all
// ranks in turn; kConcurrent splits the communicator into an atmosphere
// domain (coupler + atm + ice + land, ranks [0, atm_ranks)) and an ocean
// domain (remaining ranks) that integrate concurrently with lagged coupling.
//
// Coupling frequencies follow §6.1: the master step is one atmosphere
// coupling window; the ocean couples every `ocn_couple_ratio` windows
// (180 : 36 = 5 : 1), the ice every window (180/day).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "atm/model.hpp"
#include "atm/vortex.hpp"
#include "balance/balance.hpp"
#include "base/rng.hpp"
#include "coupler/clock.hpp"
#include "coupler/fluxes.hpp"
#include "coupler/scenario.hpp"
#include "coupler/timing.hpp"
#include "ice/ice.hpp"
#include "io/checkpoint.hpp"
#include "mct/rearranger.hpp"
#include "mct/sparsematrix.hpp"
#include "ocn/model.hpp"
#include "pp/stream.hpp"

namespace ap3::cpl {

enum class Layout { kSequential, kConcurrent };

struct CoupledConfig {
  atm::AtmConfig atm;
  ocn::OcnConfig ocn;
  /// Ice knobs (straggler stall, thermodynamic rates). The grid and
  /// dt_seconds fields are ignored: the driver derives them from the ocean
  /// grid and `ice_dt_seconds` below (make_ice_config).
  ice::IceConfig ice;
  Layout layout = Layout::kSequential;
  int atm_ranks = 0;         ///< concurrent: ranks in the atm domain (0 = half)
  int ocn_couple_ratio = 5;  ///< ocean couples every N atm windows (180:36)
  int regrid_neighbors = 3;
  double ice_dt_seconds = 0.0;  ///< 0: one ice step per window
  /// Pipeline the phase loop: post each rearrange split-phase, run the
  /// independent local work (async launches on the driver's stream) inside
  /// the wire window, then complete the exchange. Bit-exact with overlap off
  /// (state_hash() identical), including under fault-plan retransmission.
  bool overlap = false;
  /// Consider runtime load rebalancing every N ocean coupling windows
  /// (0: off). Measured per-rank phase costs drive a weighted re-cut of the
  /// ocean and ice block decompositions; accepted plans migrate column state
  /// through a Rearranger, bit-exact with rebalancing off (state_hash()
  /// identical), including under fault-plan retransmission.
  int rebalance_every = 0;
  balance::RebalancePolicy rebalance;  ///< hysteresis / cost-model knobs
  /// Checkpoint I/O policy: subfile fan-out, payload codec (fp64 bit-exact
  /// or group-scaled fp32+scales with a verified ULP bound), and the
  /// slow-disk bench knob. The `async` flag is ignored here — the driver
  /// picks sync/async per call (checkpoint vs checkpoint_async). Sections
  /// holding integers or bit-cast words (RNG state, step counters, training
  /// bookkeeping) are always written fp64 regardless of the codec policy.
  io::CheckpointOptions checkpoint;
};

/// Validate a CoupledConfig against the communicator it will run on. Throws
/// ConfigError with a specific message on the silent-misbehavior cases:
/// non-positive coupling ratio, negative rebalance interval or ice step,
/// nonsensical regrid stencil, and concurrent-layout rank splits that cannot
/// leave both domains non-empty.
void validate_coupled_config(const CoupledConfig& config, int world_size);

/// Everything that defines one ensemble member: the configuration, an initial
/// perturbation, and (optionally) the shared immutable context it serves from.
/// `ScenarioSpec{config}` is exactly the legacy constructor.
struct ScenarioSpec {
  CoupledConfig config;
  /// 0 = unperturbed control member. Nonzero seeds key a deterministic,
  /// decomposition-invariant temperature perturbation applied once after
  /// construction (Dycore::perturb_temperature).
  std::uint64_t perturbation_seed = 0;
  double perturbation_kelvin = 0.01;
  std::string name;  ///< label for diagnostics output (optional)
  /// Shared immutable inputs (mesh, ocean grid, regrid matrices, frozen AI
  /// weights). Null: the model builds a private context (legacy behavior).
  std::shared_ptr<const SharedInputs> shared;
  /// Fleet-internal: adopt an already built coupling-plan set instead of
  /// rebuilding (must match this member's communicator and decomposition).
  std::shared_ptr<const CouplingPlans> adopt_plans;
};

/// One consistent snapshot of the coupled model's scalar diagnostics
/// (collective on the global communicator, valid on every rank).
struct CoupledDiagnostics {
  double mean_sst_k = 0.0;          ///< area-weighted global mean SST [K]
  double mean_precip = 0.0;         ///< atmosphere global mean precip
  double ice_fraction = 0.0;        ///< global ice-covered ocean fraction
  double max_surface_current = 0.0; ///< max ocean surface speed [m/s]
  long long windows = 0;            ///< master coupling windows run
  long long atm_steps = 0;          ///< atmosphere model steps
  long long ocn_baroclinic_steps = 0;
  long long ice_steps = 0;
  long long rebalance_migrations = 0;
};

class CoupledModel {
 public:
  /// Scenario-centric construction (collective on the global communicator):
  /// validates the config, builds or adopts the shared context, constructs
  /// the components, and applies the scenario's perturbation.
  CoupledModel(const par::Comm& global, ScenarioSpec spec);
  /// Legacy construction — a thin shim over ScenarioSpec{config} that builds
  /// a private context.
  CoupledModel(const par::Comm& global, const CoupledConfig& config);

  /// Advance `atm_windows` master coupling windows (collective).
  void run_windows(int atm_windows);

  double atm_window_seconds() const { return window_seconds_; }
  double ocn_window_seconds() const {
    return window_seconds_ * config_.ocn_couple_ratio;
  }
  long long windows_run() const { return clock_.steps_taken(); }
  const Clock& clock() const { return clock_; }
  /// Accepted rebalance migrations so far (identical on every rank).
  long long rebalance_migrations() const { return rebalance_migrations_; }

  /// Install a trained AI suite as the atmosphere's physics (no-op on ranks
  /// without an atmosphere). `options.engine` picks the execution space and
  /// precision policy; when the driver runs with `CoupledConfig::overlap` the
  /// engine's micro-batch overlap is switched on too. `options.online` keeps
  /// fine-tuning against the conventional suite during the run (the weights
  /// and optimizer state then become checkpoint sections, so restart stays
  /// bit-exact). Fleet members pass the same `options.suite` pointer so one
  /// InferenceEngine micro-batches across all of them.
  void install_ai_physics(const AiInstallOptions& options);

  bool has_atm() const { return atm_ != nullptr; }
  bool has_ocn() const { return ocn_ != nullptr; }
  bool has_ice() const { return ice_ != nullptr; }
  /// Checked component references: throw ap3::Error when the component does
  /// not live on this rank (concurrent layout) — check has_*() first.
  atm::AtmModel& atm();
  const atm::AtmModel& atm() const;
  ocn::OcnModel& ocn();
  const ocn::OcnModel& ocn() const;
  ice::IceModel& ice();
  const ice::IceModel& ice() const;

  /// The scenario this model was constructed from.
  const ScenarioSpec& scenario() const { return spec_; }
  /// Shared immutable context (null when privately built).
  const std::shared_ptr<const SharedInputs>& shared_inputs() const {
    return shared_;
  }
  /// The communicator-bound coupling plans currently in use. A fleet donates
  /// member 0's plans to the other members via ScenarioSpec::adopt_plans.
  const std::shared_ptr<const CouplingPlans>& coupling_plans() const {
    return plans_;
  }

  // --- checkpoint/restart (collective on the global communicator) ------------
  /// Write a versioned snapshot of the full coupled state (every component's
  /// prognostic fields, the coupler's accumulators and caches, the clock,
  /// the AI-normalizer state when the AI suite is installed, and the driver
  /// RNG stream) to `dir` through the subfile I/O layer.
  void checkpoint(const std::string& dir);
  /// Restore from a snapshot written with the same configuration and rank
  /// count; resumed runs are bit-identical to uninterrupted ones. Throws
  /// ap3::Error on a corrupt, truncated, or mismatched snapshot.
  void restore(const std::string& dir);
  /// Streaming checkpoint: snapshots the state NOW (the collective gather
  /// runs inline, double-buffering each section's data), but hands subfile
  /// encode+write to a background pp::Stream lane and returns, overlapping
  /// checkpoint I/O with continued stepping. The snapshot commits (manifest
  /// rename) at its completion fence: the next checkpoint boundary touching
  /// the same dir, the third in-flight checkpoint_async (two snapshots max,
  /// back-pressure instead of unbounded memory), restore(), or
  /// checkpoint_wait(). Snapshots never fenced before destruction are
  /// abandoned — no manifest, so they read as "no snapshot", not corruption.
  void checkpoint_async(const std::string& dir);
  /// Collective fence: finalize every in-flight async checkpoint (FIFO).
  /// Deferred write failures from any rank rethrow here on all ranks.
  void checkpoint_wait();
  /// Async snapshots begun but not yet fenced (0, 1, or 2).
  std::size_t checkpoints_in_flight() const {
    return pending_checkpoints_.size();
  }
  /// Combined FNV-1a hash of every checkpointed section across all ranks
  /// (collective): equal hashes ⇔ bit-identical coupled state.
  std::uint64_t state_hash();
  /// This rank's checkpoint section payloads keyed by name (collective, for
  /// verification harnesses comparing restored state against a reference —
  /// e.g. the group-scaled codec's ULP-bound witness).
  std::map<std::string, io::FieldData> local_checkpoint_sections();
  /// Driver-owned deterministic stream (stochastic perturbation hook);
  /// checkpointed so resumed runs draw the same tail of the sequence.
  Rng& rng() { return rng_; }

  // --- collective diagnostics (call on every global rank) --------------------
  /// getTiming-style report over everything run since initialization (§6.2;
  /// collective, identical on every rank): the driver's "run*" spans reduced
  /// across ranks by obs::merge. While obs::set_enabled(false) holds no spans
  /// are recorded, so a run made entirely with obs disabled reports no
  /// phases and SYPD 0.
  TimingSummary timing_summary();

  /// One consistent snapshot of the scalar diagnostics (collective).
  CoupledDiagnostics diagnostics();

  // --- typhoon experiment hooks (collective) ----------------------------------
  void seed_typhoon(const atm::VortexSpec& spec);
  atm::VortexFix track_typhoon(double prev_lon_deg, double prev_lat_deg,
                               double search_km);
  /// Area-mean SST [K] within `radius_km` of a point (cold-wake diagnostic).
  double sst_near(double lon_deg, double lat_deg, double radius_km);

 private:
  void build_coupling_infrastructure();
  /// Implementations of the scalar diagnostics behind diagnostics().
  double mean_sst_impl();
  double mean_precip_impl();
  double ice_fraction_impl();
  double max_current_impl();
  void atm_ice_phase();  ///< one master window: atm.run, ice.run, exchanges
  void ocn_phase();      ///< at ocean boundaries: fluxes, ocn.run, exports

  // --- runtime load rebalancing (src/balance) --------------------------------
  /// Driver-side state for one registered balance::Rebalanceable. An entry
  /// exists on EVERY rank for every component (collective consistency);
  /// `model()` returns null on ranks outside the component's task domain and
  /// tracks the owning unique_ptr through migrations and restores.
  struct BalanceParticipant {
    std::string name;        ///< == model()->balance_name() where present
    std::string phase_span;  ///< obs span measured as this component's cost
    int layout_root = 0;     ///< global rank replicating cuts into checkpoints
    bool migratable = false; ///< has a block decomposition (static property)
    std::function<balance::Rebalanceable*()> model;
    const par::Comm* comm = nullptr;  ///< domain comm (null where absent)
    /// Collective on `comm`: construct the component anew on `cuts` and swap
    /// it into the driver (state is then imported by migrate_participant or
    /// overwritten by section reads on restore).
    std::function<void(const grid::BlockCuts&)> rebuild;
    std::optional<balance::LoadBalancer> balancer;  ///< where the model lives
    std::size_t mark = 0;    ///< span-buffer mark opening the cost window
    double busy_seen = 0.0;  ///< busy-counter watermark at the mark
  };
  /// Build the registry (fixed atm, ocn, ice order — the checkpointed busy
  /// watermark ids and the collective decision loop rely on it).
  void register_balance_participants();
  /// Collective on the global communicator. Generic measure→decide→migrate
  /// loop over the registry: folds each participant's busy delta into its
  /// measured phase cost, lets its balancer decide (assessment only for
  /// non-migratable participants), migrates accepted plans, and rebuilds
  /// coupling infrastructure.
  void maybe_rebalance();
  /// Export → rebuild on `cuts` → Rearranger-migrate → import, bit-exact
  /// (collective on the participant's domain communicator).
  void migrate_participant(BalanceParticipant& p, const grid::BlockCuts& cuts);
  ice::IceConfig make_ice_config() const;
  /// Per-column FNV digest sum of the coupler's ice-side caches, keyed by
  /// global id so the value is decomposition-invariant.
  std::uint64_t ice_cache_column_hash() const;
  /// Replicate every migratable participant's cuts from its layout root and
  /// store them as "bal.<name>.*" scalars.
  void write_layout_scalars(io::CheckpointWriter& writer);
  /// Rebuild participants whose checkpointed cuts differ from the current
  /// decomposition (must run before any section reads).
  void restore_layout(io::CheckpointReader& reader);
  /// Per-rank pending busy seconds (counter minus watermark), one value per
  /// registry entry — the "cpl.balance_busy" checkpoint payload. Restore
  /// re-anchors the watermarks from it so the first post-restore rebalance
  /// decision sees exactly the busy time an uninterrupted run would.
  io::FieldData balance_busy_pending() const;

  /// True when the atmosphere runs the AI suite anywhere in the job
  /// (collective — concurrent-layout ocean ranks have no atmosphere).
  bool ai_physics_active();
  /// Coupler-owned sections (accumulators, caches, RNG, AI normalizers).
  std::vector<io::Section> coupler_sections(bool ai_on) const;
  void restore_coupler_sections(const std::vector<io::Section>& sections,
                                bool ai_on);
  /// The full canonical section inventory, identical on every rank — the
  /// collective order add_section/read_section calls must follow.
  static std::vector<std::string> section_inventory(bool ai_on);
  /// This rank's sections keyed by name (absent components contribute none).
  std::map<std::string, io::FieldData> local_sections(bool ai_on);
  /// Shared by checkpoint/checkpoint_async: snapshot every section + scalar
  /// into a writer (gathers run inline; writes run inline or on the
  /// writer's stream lane depending on `async`), without finalizing.
  std::unique_ptr<io::CheckpointWriter> begin_checkpoint(
      const std::string& dir, bool async);
  /// Finalize the oldest in-flight async snapshot (collective).
  void finish_oldest_checkpoint();
  /// If `dir` has an in-flight snapshot, finalize FIFO up through it —
  /// never race two writers on one directory.
  void finish_pending_checkpoints_for(const std::string& dir);

  const par::Comm& global_;
  ScenarioSpec spec_;
  CoupledConfig& config_ = spec_.config;  ///< alias into spec_
  // Domain communicators must outlive the components referencing them.
  std::optional<par::Comm> atm_comm_;
  std::optional<par::Comm> ocn_comm_;

  // Immutable shared context (null when privately built) and the grids the
  // components reference — pointers into shared_ when present, otherwise
  // privately built with identical values.
  std::shared_ptr<const SharedInputs> shared_;
  std::shared_ptr<const grid::IcosahedralGrid> mesh_;
  std::shared_ptr<const grid::TripolarGrid> ocn_grid_;
  std::unique_ptr<atm::AtmModel> atm_;
  std::unique_ptr<ocn::OcnModel> ocn_;
  std::unique_ptr<ice::IceModel> ice_;

  // Communicator-bound coupling machinery; shared across fleet members on
  // one rank thread. Rebuilds (rebalance, restore_layout) allocate a fresh
  // object so donated plans detach rather than mutate.
  std::shared_ptr<const CouplingPlans> plans_;

  // Accumulated atmosphere exports (atm decomposition) for the ocean window.
  mct::AttrVect a2x_accum_;
  int accum_count_ = 0;
  // Latest fields cached on each side between coupling events.
  std::vector<double> sst_on_atm_;     // atm decomposition
  std::vector<double> sst_on_ice_, us_on_ice_, vs_on_ice_;  // ice decomposition

  // Runtime load rebalancing: the participant registry (always built; the
  // per-entry balancers are only emplaced when rebalance_every > 0).
  std::vector<BalanceParticipant> balance_;
  long long rebalance_migrations_ = 0;

  Clock clock_;
  pp::Stream stream_;     ///< async launch queue for the --overlap pipeline
  /// In-flight async checkpoint writers, oldest first (≤ 2: back-pressure).
  std::deque<std::unique_ptr<io::CheckpointWriter>> pending_checkpoints_;
  Rng rng_{0xA93E5Cull};  ///< driver stream; part of the checkpoint
  std::size_t obs_first_event_ = 0;  ///< span-buffer mark at end of init
  double window_seconds_ = 0.0;
  BulkFluxConfig flux_config_;
};

/// Build the shared immutable context for `config` (mesh, ocean grid, regrid
/// matrices). Communicator-free; call once per process, outside par::run.
std::shared_ptr<const SharedInputs> build_shared_inputs(
    const CoupledConfig& config);
/// Same, additionally freezing `suite`'s trained weights into the context so
/// fleet ranks can thaw identical per-rank suites.
std::shared_ptr<const SharedInputs> build_shared_inputs(
    const CoupledConfig& config, ai::AiPhysicsSuite& suite);

}  // namespace ap3::cpl
