// AtmModel — the GRIST-mini atmosphere component.
//
// Owns the dycore, the physics–dynamics coupling interface (conventional or
// AI suite), and the directly-coupled land surface model (§5.1.1: land
// bypasses the coupler). Exposes the MCT-style contract the CPL7-like driver
// consumes: init (constructor), run over a coupling window, export/import of
// boundary AttrVects on a GlobalSegMap decomposition.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "atm/dycore.hpp"
#include "atm/physics.hpp"
#include "balance/rebalanceable.hpp"
#include "io/checkpoint.hpp"
#include "lnd/land.hpp"
#include "mct/attrvect.hpp"
#include "mct/gsmap.hpp"

namespace ap3::atm {

/// Columns per physics call for a column-local suite (ICON's `nproma`): the
/// batch is ~276 KB at 30 levels, so it stays in cache and is reused across
/// chunks instead of first-touching nine ncols·nlev arrays every model step.
inline constexpr std::size_t kPhysicsChunkColumns = 128;

/// Busy-channel-only balance::Rebalanceable: the icosahedral mesh keeps its
/// 1-D balanced partition (no block cuts), so block_partition() stays null
/// and the atmosphere participates through "atm:busy_seconds" + phase-cost
/// measurement alone.
class AtmModel : public balance::Rebalanceable {
 public:
  /// Collective construction = the component's MCT `init`.
  AtmModel(const par::Comm& comm, const AtmConfig& config,
           const grid::IcosahedralGrid& mesh);

  /// Advance the model across a coupling window = the MCT `run`. The window
  /// must be an integer number of model steps.
  void run(double start_seconds, double duration_seconds);

  // --- coupler contract -----------------------------------------------------
  static std::vector<std::string> export_fields();
  static std::vector<std::string> import_fields();
  const mct::GlobalSegMap& gsmap() const { return gsmap_; }
  void export_state(mct::AttrVect& a2x) const;
  void import_state(const mct::AttrVect& x2a);

  // --- internals / diagnostics ----------------------------------------------
  Dycore& dycore() { return *dycore_; }
  const Dycore& dycore() const { return *dycore_; }
  lnd::LandModel& land() { return *land_; }
  PhysicsSuite& physics() { return *physics_; }
  void set_physics(std::unique_ptr<PhysicsSuite> suite);
  const AtmConfig& config() const { return config_; }
  const par::Comm& comm() const { return comm_; }

  // --- balance::Rebalanceable -----------------------------------------------
  std::string_view balance_name() const override { return "atm"; }

  bool is_land(std::size_t owned) const { return land_mask_[owned]; }
  double tskin(std::size_t owned) const { return tskin_[owned]; }
  double sst(std::size_t owned) const { return sst_[owned]; }
  /// Area-weighted global mean precipitation [kg/m²/s] (collective).
  double global_mean_precip() const;
  /// Steps taken so far.
  long long model_steps() const { return steps_; }

  // --- checkpoint/restart ---------------------------------------------------
  /// This rank's full prognostic snapshot: dycore slot arrays (owned +
  /// ghosts, so no halo exchange is needed on restore), surface/import
  /// state, the directly-coupled land bucket, and the step counter.
  std::vector<io::Section> checkpoint_sections() const;
  /// Inverse of checkpoint_sections(); `sections` must carry this rank's
  /// layout (same names and sizes) with restored values.
  void restore_sections(const std::vector<io::Section>& sections);
  /// Section names in checkpoint_sections() order — the driver's canonical
  /// inventory (needed on ranks where the component does not live).
  static std::vector<std::string> checkpoint_section_names();

  /// Surface pressure diagnostic [Pa].
  double surface_pressure(std::size_t owned) const;
  /// Cosine of solar zenith angle at cell `owned`, time `t` seconds.
  double cos_zenith(std::size_t owned, double t_seconds) const;

 private:
  void model_step(double t_seconds);
  void apply_physics(double t_seconds, double dt);

  const par::Comm& comm_;
  AtmConfig config_;
  std::unique_ptr<Dycore> dycore_;
  std::unique_ptr<PhysicsSuite> physics_;
  std::unique_ptr<lnd::LandModel> land_;
  mct::GlobalSegMap gsmap_;

  std::vector<bool> land_mask_;
  std::vector<double> tskin_;   ///< land: prognostic; ocean: from import
  std::vector<double> sst_;     ///< imported SST [K]
  std::vector<double> ifrac_;   ///< imported ice fraction
  std::vector<double> gsw_, glw_, precip_;  ///< last physics diagnostics
  /// Per-level pressure profile shape, depth^1.2 with depth = (k+1)/nlev.
  std::vector<double> level_pressure_factor_;
  long long steps_ = 0;
  long long stall_points_ = 0;  ///< owned cells in the stall band
};

}  // namespace ap3::atm
