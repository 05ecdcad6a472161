// GRIST-mini dynamical core: a vector-invariant-style shallow-water solver
// on the icosahedral triangular mesh, plus upwind tracer advection for the
// 3-D temperature/humidity stacks.
//
// The numerical choices favour robustness and the *computational structure*
// of the paper's dycore (unstructured cell loops, halo exchange every
// substep, forward–backward gravity-wave coupling, sub-stepped tracers):
//   - cell-centred state (A-grid) with 3-D Cartesian tangent velocities,
//   - flux-form continuity with first-order upwinding (mass conserved to
//     round-off across any rank count),
//   - forward–backward time stepping (h first, then velocity from new h),
//   - optional §5.2.3 group-scaled mixed-precision state rounding.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "atm/config.hpp"
#include "grid/halo.hpp"
#include "grid/icosahedral.hpp"
#include "grid/partition.hpp"
#include "par/comm.hpp"

namespace ap3::atm {

/// Per-rank geometry cache of a contiguous cell partition.
class LocalMesh {
 public:
  LocalMesh(const par::Comm& comm, const grid::IcosahedralGrid& mesh);

  std::size_t num_owned() const { return num_owned_; }
  std::size_t num_ghosts() const { return ghost_ids_.size(); }
  std::size_t num_slots() const { return num_owned_ + ghost_ids_.size(); }
  std::int64_t ncells_global() const { return ncells_global_; }
  std::int64_t global_id(std::size_t owned) const {
    return owned_begin_ + static_cast<std::int64_t>(owned);
  }
  std::int64_t owned_begin() const { return owned_begin_; }

  struct Neighbor {
    std::size_t slot = 0;          ///< owned index or owned+ghost offset
    double edge_len_m = 0.0;       ///< shared edge length
    double dist_m = 0.0;           ///< distance between cell centers
    std::array<double, 3> out_normal{};  ///< unit, tangent, outward
  };

  const std::array<Neighbor, 3>& neighbors(std::size_t owned) const {
    return neighbors_[owned];
  }
  double area_m2(std::size_t owned) const { return area_[owned]; }
  double coriolis(std::size_t owned) const { return coriolis_[owned]; }
  double lon_rad(std::size_t owned) const { return lon_[owned]; }
  double lat_rad(std::size_t owned) const { return lat_[owned]; }
  const std::array<double, 3>& center(std::size_t owned) const {
    return center_[owned];
  }
  const std::array<double, 3>& east(std::size_t owned) const {
    return east_[owned];
  }
  const std::array<double, 3>& north(std::size_t owned) const {
    return north_[owned];
  }

  /// Halo view of a slot-indexed field with `width` values per slot: the
  /// owned slots, then the ghost slots.
  grid::GraphHalo::Field slot_field(std::vector<double>& field,
                                    std::size_t width = 1) const;
  /// Fill the ghosts of every field from neighbor ranks: one message per
  /// peer for the whole batch.
  void exchange(std::span<const grid::GraphHalo::Field> fields) const;
  /// Fill ghost slots of a slot-indexed field from neighbor ranks.
  void exchange(std::vector<double>& field) const;

 private:
  std::size_t num_owned_ = 0;
  std::int64_t owned_begin_ = 0;
  std::int64_t ncells_global_ = 0;
  std::vector<double> area_, coriolis_, lon_, lat_;
  std::vector<std::array<double, 3>> center_, east_, north_;
  std::vector<std::array<Neighbor, 3>> neighbors_;
  std::vector<std::int64_t> ghost_ids_;
  std::unique_ptr<grid::GraphHalo> halo_;
};

/// Prognostic shallow-water + tracer state, slot-indexed (owned then ghosts).
struct DycoreState {
  std::vector<double> h;               ///< layer thickness [m]
  std::vector<double> vx, vy, vz;      ///< tangent velocity [m/s]
  std::vector<double> temp;            ///< (slot * nlev) temperature [K]
  std::vector<double> q;               ///< (slot * nlev) humidity [kg/kg]
  std::size_t nlev = 0;

  std::size_t tq(std::size_t slot, std::size_t lev) const {
    return slot * nlev + lev;
  }
};

class Dycore {
 public:
  Dycore(const par::Comm& comm, const AtmConfig& config,
         const grid::IcosahedralGrid& mesh);

  const LocalMesh& mesh() const { return local_; }
  DycoreState& state() { return state_; }
  const DycoreState& state() const { return state_; }
  const AtmConfig& config() const { return config_; }

  /// One dycore substep (forward–backward shallow water).
  void step_dynamics(double dt);
  /// One tracer substep (upwind advection of temp and q on every level).
  /// Tracer ghosts are read from a Dycore-owned scratch buffer; the state's
  /// temp/q ghost slots are left untouched.
  void step_tracers(double dt);

  /// Ensemble perturbation: add a deterministic pseudo-random temperature
  /// offset in (-amplitude_k, amplitude_k) to every owned (cell, level),
  /// keyed on (seed, global cell id, level) so the field is invariant to the
  /// rank decomposition. Ghosts are refreshed afterwards.
  void perturb_temperature(std::uint64_t seed, double amplitude_k);

  /// Global invariants (collective).
  double total_mass() const;              ///< Σ h·A
  double max_wind() const;                ///< max |V| across ranks
  double max_h_deviation() const;         ///< max |h − H0|

  /// Relative vorticity at each owned cell (for typhoon tracking / Fig. 6).
  std::vector<double> relative_vorticity() const;
  /// Zonal/meridional wind at an owned cell.
  void wind_at(std::size_t owned, double& u_east, double& v_north) const;
  void set_wind_at(std::size_t owned, double u_east, double v_north);

  /// Work accounting for the perf model: flops and touched bytes per
  /// substep per owned cell.
  static double dynamics_flops_per_cell() { return 220.0; }
  static double tracer_flops_per_cell_level() { return 40.0; }

 private:
  void exchange_dynamic_fields();
  void apply_mixed_precision();

  const par::Comm& comm_;
  AtmConfig config_;
  LocalMesh local_;
  DycoreState state_;
  std::vector<double> h_flux_div_;  // scratch
  // Tracer ghosts of step_tracers: temp then q, (ghost, lev) each.
  std::vector<double> tracer_ghosts_;
};

}  // namespace ap3::atm
