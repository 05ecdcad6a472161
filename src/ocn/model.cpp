#include "ocn/model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <thread>

#include "base/constants.hpp"
#include "base/error.hpp"
#include "base/hash.hpp"
#include "obs/obs.hpp"
#include "precision/group_scaled.hpp"

namespace ap3::ocn {

namespace {

/// Every level of the given 3-D stacks, for one batched halo exchange.
std::vector<std::vector<double>*> levels_of(
    std::initializer_list<std::vector<std::vector<double>>*> stacks) {
  std::vector<std::vector<double>*> out;
  for (auto* stack : stacks)
    for (auto& level : *stack) out.push_back(&level);
  return out;
}

}  // namespace

using constants::kCpSeawater;
using constants::kDegToRad;
using constants::kEarthRadiusM;
using constants::kGravity;
using constants::kOmega;
using constants::kPi;
using constants::kRhoSeawater;

double OcnConfig::wave_speed() const { return std::sqrt(kGravity * 5500.0); }

double OcnConfig::barotropic_dt_seconds() const {
  // CFL against the smallest zonal spacing (highest resolved latitude).
  grid::TripolarGrid g(grid);
  double min_dx = 1e30;
  for (int j = 0; j < g.ny(); ++j) {
    const double coslat = std::max(0.05, std::cos(g.lat_deg(j) * kDegToRad));
    min_dx = std::min(min_dx,
                      kEarthRadiusM * coslat * 2.0 * kPi / g.nx());
  }
  return cfl_fraction * min_dx / wave_speed();
}

OcnModel::OcnModel(const par::Comm& comm, const OcnConfig& config,
                   std::shared_ptr<const grid::TripolarGrid> grid)
    : OcnModel(comm, config,
               grid::BlockPartition2D::balanced(config.grid.nx, config.grid.ny,
                                                comm.size())
                   .cuts(),
               std::move(grid)) {}

OcnModel::OcnModel(const par::Comm& comm, const OcnConfig& config,
                   const grid::BlockCuts& cuts,
                   std::shared_ptr<const grid::TripolarGrid> grid)
    : comm_(comm),
      config_(config),
      grid_(grid ? std::move(grid)
                 : std::make_shared<const grid::TripolarGrid>(config.grid)),
      partition_(config.grid.nx, config.grid.ny, cuts) {
  AP3_REQUIRE_MSG(grid_->config() == config_.grid,
                  "OcnModel: shared grid was built for a different "
                  "TripolarConfig than this model's config.grid");
  halo_ = std::make_unique<grid::BlockHalo>(comm, config_.grid.nx,
                                            config_.grid.ny, cuts,
                                            /*north_fold=*/true);
  const int nxl = halo_->nx_local();
  const int nyl = halo_->ny_local();
  const std::size_t slots =
      static_cast<std::size_t>(nxl + 2) * static_cast<std::size_t>(nyl + 2);

  // Geometry.
  dx_m_.resize(static_cast<std::size_t>(nyl));
  dy_m_.resize(static_cast<std::size_t>(nyl));
  coriolis_.resize(static_cast<std::size_t>(nyl));
  area_m2_.resize(static_cast<std::size_t>(nyl));
  const double dlat =
      (config_.grid.lat_north - config_.grid.lat_south) * kDegToRad /
      config_.grid.ny;
  for (int j = 0; j < nyl; ++j) {
    const double lat = grid_->lat_deg(halo_->y0() + j) * kDegToRad;
    const double coslat = std::max(0.05, std::cos(lat));
    dx_m_[static_cast<std::size_t>(j)] =
        kEarthRadiusM * coslat * 2.0 * kPi / config_.grid.nx;
    dy_m_[static_cast<std::size_t>(j)] = kEarthRadiusM * dlat;
    coriolis_[static_cast<std::size_t>(j)] = 2.0 * kOmega * std::sin(lat);
    area_m2_[static_cast<std::size_t>(j)] =
        dx_m_[static_cast<std::size_t>(j)] * dy_m_[static_cast<std::size_t>(j)];
  }
  // Zonal spacing for any local row, halo rows included: resolved through
  // the global row (fold row beyond the top mirrors to the same latitude),
  // so both ranks sharing a face use the identical face length and fluxes
  // cancel pairwise to round-off.
  auto dx_row = [&](int j) {
    int gj = halo_->y0() + j;
    if (gj < 0) gj = 0;
    if (gj >= config_.grid.ny) gj = config_.grid.ny - 1;
    const double coslat =
        std::max(0.05, std::cos(grid_->lat_deg(gj) * kDegToRad));
    return kEarthRadiusM * coslat * 2.0 * kPi / config_.grid.nx;
  };
  face_dx_north_.resize(static_cast<std::size_t>(nyl + 1));
  for (int j = -1; j < nyl; ++j)
    face_dx_north_[static_cast<std::size_t>(j + 1)] =
        0.5 * (dx_row(j) + dx_row(j + 1));

  // Vertical spacing.
  const int nz = config_.grid.nz;
  dz_layer_.resize(static_cast<std::size_t>(nz));
  dz_center_.resize(static_cast<std::size_t>(nz > 1 ? nz - 1 : 0));
  double prev = 0.0;
  for (int k = 0; k < nz; ++k) {
    const double z = grid_->level_depth(k);
    dz_layer_[static_cast<std::size_t>(k)] = z - prev;
    prev = z;
  }
  for (int k = 0; k + 1 < nz; ++k)
    dz_center_[static_cast<std::size_t>(k)] =
        0.5 * (dz_layer_[static_cast<std::size_t>(k)] +
               dz_layer_[static_cast<std::size_t>(k + 1)]);

  // Land mask over the halo layout. Ghosts consult the (globally
  // replicated) grid with east/west wraparound; the closed south mirrors the
  // edge row's mask and the ghost above the top row mirrors in longitude.
  kmt_halo_.assign(slots, 0);
  for (int j = -1; j <= nyl; ++j) {
    for (int i = -1; i <= nxl; ++i) {
      int gi = halo_->x0() + i;
      int gj = halo_->y0() + j;
      gi = (gi % config_.grid.nx + config_.grid.nx) % config_.grid.nx;
      if (gj < 0) gj = 0;
      if (gj >= config_.grid.ny) {
        gj = config_.grid.ny - 1;
        gi = config_.grid.nx - 1 - gi;
      }
      kmt_halo_[field_index(i, j)] = grid_->kmt(gi, gj);
    }
  }
  // Active columns and ocean gids (ascending: row-major over the block).
  column_of_.assign(slots, 0);
  for (int j = 0; j < nyl; ++j) {
    for (int i = 0; i < nxl; ++i) {
      if (kmt_local(i, j) == 0) continue;
      column_of_[field_index(i, j)] = ocean_gids_.size();
      active_columns_.push_back({i, j});
      ocean_gids_.push_back(
          static_cast<std::int64_t>(halo_->y0() + j) * config_.grid.nx +
          (halo_->x0() + i));
    }
  }
  gsmap_ = mct::GlobalSegMap::build(comm, ocean_gids_);

  // Prognostic state.
  eta_.assign(slots, 0.0);
  ubar_.assign(slots, 0.0);
  vbar_.assign(slots, 0.0);
  u_.assign(static_cast<std::size_t>(nz), std::vector<double>(slots, 0.0));
  v_.assign(static_cast<std::size_t>(nz), std::vector<double>(slots, 0.0));
  temp_.assign(static_cast<std::size_t>(nz), std::vector<double>(slots, 2.0));
  salt_.assign(static_cast<std::size_t>(nz), std::vector<double>(slots, 34.7));
  for (int j = 0; j < nyl; ++j) {
    const double lat = grid_->lat_deg(halo_->y0() + j) * kDegToRad;
    const double coslat = std::cos(lat);
    for (int i = 0; i < nxl; ++i) {
      const double tsurf = 28.0 * coslat * coslat;
      for (int k = 0; k < nz; ++k) {
        const double z = grid_->level_depth(k);
        temp_[static_cast<std::size_t>(k)][field_index(i, j)] =
            2.0 + tsurf * std::exp(-z / 800.0);
        salt_[static_cast<std::size_t>(k)][field_index(i, j)] =
            34.7 + 0.6 * std::exp(-z / 500.0) * coslat;
      }
    }
  }
  halo_->exchange(levels_of({&temp_, &salt_}));

  taux_.assign(ocean_gids_.size(), 0.0);
  tauy_.assign(ocean_gids_.size(), 0.0);
  qnet_.assign(ocean_gids_.size(), 0.0);
  fresh_.assign(ocean_gids_.size(), 0.0);

  if (config_.stall_seconds_per_point > 0.0) {
    for (const auto& [i, j] : active_columns_) {
      const int gi = halo_->x0() + i;
      const int gj = halo_->y0() + j;
      const bool in_band =
          (config_.stall_i_begin >= 0 && gi >= config_.stall_i_begin) ||
          (config_.stall_j_begin >= 0 && gj >= config_.stall_j_begin);
      if (in_band) stall_points_ += kmt_local(i, j);
    }
  }
}

std::vector<std::string> OcnModel::export_fields() {
  return {"sst", "ssh", "us", "vs"};
}
std::vector<std::string> OcnModel::import_fields() {
  return {"taux", "tauy", "qnet", "fresh"};
}

template <typename Fn>
void OcnModel::for_each_column(Fn&& fn) {
  if (config_.exclude_non_ocean) {
    for (const auto& [i, j] : active_columns_) {
      ++column_iterations_;
      fn(i, j, kmt_local(i, j));
    }
    return;
  }
  const int nxl = halo_->nx_local();
  const int nyl = halo_->ny_local();
  for (int j = 0; j < nyl; ++j) {
    for (int i = 0; i < nxl; ++i) {
      ++column_iterations_;
      const int kmt = kmt_local(i, j);
      if (kmt == 0) continue;  // wasted iteration the exclusion removes
      fn(i, j, kmt);
    }
  }
}

void OcnModel::barotropic_step(double dt) {
  const int nxl = halo_->nx_local();
  const int nyl = halo_->ny_local();
  std::vector<double>* state[] = {&eta_, &ubar_, &vbar_};
  halo_->exchange(state);
  halo_->flip_fold_vector(ubar_);
  halo_->flip_fold_vector(vbar_);

  // Continuity: finite-volume flux divergence with upwind face thickness.
  std::vector<double> deta(static_cast<std::size_t>(nxl * nyl), 0.0);
  auto face_flux_x = [&](int i, int j) {
    // Flux through the east face of (i, j) toward (i+1, j); positive east.
    if (kmt_local(i, j) == 0 || kmt_local(i + 1, j) == 0) return 0.0;
    const double un = 0.5 * (ubar_[field_index(i, j)] +
                             ubar_[field_index(i + 1, j)]);
    const double h_face = depth_m_ + (un >= 0.0 ? eta_[field_index(i, j)]
                                                : eta_[field_index(i + 1, j)]);
    return un * h_face * dy_m_[static_cast<std::size_t>(j)];
  };
  auto face_flux_y = [&](int i, int j) {
    // Flux through the north face of (i, j) toward (i, j+1); positive north.
    if (kmt_local(i, j) == 0 || kmt_local(i, j + 1) == 0) return 0.0;
    const double vn = 0.5 * (vbar_[field_index(i, j)] +
                             vbar_[field_index(i, j + 1)]);
    const double h_face = depth_m_ + (vn >= 0.0 ? eta_[field_index(i, j)]
                                                : eta_[field_index(i, j + 1)]);
    // Face length: zonal spacing at the shared latitude edge.
    return vn * h_face * face_dx_north_[static_cast<std::size_t>(j + 1)];
  };
  for (int j = 0; j < nyl; ++j) {
    const bool south_closed = halo_->y0() + j == 0;
    for (int i = 0; i < nxl; ++i) {
      if (kmt_local(i, j) == 0) continue;
      const double fe = face_flux_x(i, j);
      const double fw = face_flux_x(i - 1, j);
      const double fn = face_flux_y(i, j);
      const double fs = south_closed ? 0.0 : face_flux_y(i, j - 1);
      deta[static_cast<std::size_t>(j * nxl + i)] =
          -(fe - fw + fn - fs) / area_m2_[static_cast<std::size_t>(j)];
    }
  }
  for (int j = 0; j < nyl; ++j)
    for (int i = 0; i < nxl; ++i)
      eta_[field_index(i, j)] +=
          dt * deta[static_cast<std::size_t>(j * nxl + i)];

  // Momentum with the *new* eta (forward–backward).
  halo_->exchange(eta_);
  for (int j = 0; j < nyl; ++j) {
    const double dx = dx_m_[static_cast<std::size_t>(j)];
    const double dy = dy_m_[static_cast<std::size_t>(j)];
    // Coriolis as an exact rotation (unconditionally stable).
    const double angle = coriolis_[static_cast<std::size_t>(j)] * dt;
    const double cosa = std::cos(angle), sina = std::sin(angle);
    for (int i = 0; i < nxl; ++i) {
      if (kmt_local(i, j) == 0) continue;
      const std::size_t c = field_index(i, j);
      const double eta_c = eta_[c];
      const double eta_e =
          kmt_local(i + 1, j) > 0 ? eta_[field_index(i + 1, j)] : eta_c;
      const double eta_w =
          kmt_local(i - 1, j) > 0 ? eta_[field_index(i - 1, j)] : eta_c;
      const double eta_n =
          kmt_local(i, j + 1) > 0 ? eta_[field_index(i, j + 1)] : eta_c;
      const double eta_s = (halo_->y0() + j > 0 && kmt_local(i, j - 1) > 0)
                               ? eta_[field_index(i, j - 1)]
                               : eta_c;
      const std::size_t col = column_of_[c];
      double du = dt * (-kGravity * (eta_e - eta_w) / (2.0 * dx) -
                        config_.drag_per_second * ubar_[c] +
                        taux_[col] / (kRhoSeawater * depth_m_));
      double dv = dt * (-kGravity * (eta_n - eta_s) / (2.0 * dy) -
                        config_.drag_per_second * vbar_[c] +
                        tauy_[col] / (kRhoSeawater * depth_m_));
      const double u_star = ubar_[c] + du;
      const double v_star = vbar_[c] + dv;
      ubar_[c] = cosa * u_star + sina * v_star;
      vbar_[c] = -sina * u_star + cosa * v_star;
    }
  }
}

void OcnModel::baroclinic_step(double dt) {
  // Coriolis rotation per row, shared by every column of the row.
  const auto nyl = static_cast<std::size_t>(halo_->ny_local());
  std::vector<double> row_cos(nyl), row_sin(nyl);
  for (std::size_t j = 0; j < nyl; ++j) {
    const double angle = coriolis_[j] * dt;
    row_cos[j] = std::cos(angle);
    row_sin[j] = std::sin(angle);
  }

  for_each_column([&](int i, int j, int kmt) {
    const std::size_t c = field_index(i, j);
    const std::size_t col = column_of_[c];
    // Wind stress accelerates the top layer; bottom drag the lowest.
    u_[0][c] += dt * taux_[col] /
                (kRhoSeawater * dz_layer_[0]);
    v_[0][c] += dt * tauy_[col] / (kRhoSeawater * dz_layer_[0]);
    const auto kb = static_cast<std::size_t>(kmt - 1);
    u_[kb][c] -= dt * 10.0 * config_.drag_per_second * u_[kb][c];
    v_[kb][c] -= dt * 10.0 * config_.drag_per_second * v_[kb][c];

    // Coriolis rotation per level, then barotropic-mean replacement: the
    // classic split correction keeping the column mean consistent with the
    // barotropic solver.
    const double cosa = row_cos[static_cast<std::size_t>(j)];
    const double sina = row_sin[static_cast<std::size_t>(j)];
    double mean_u = 0.0, mean_v = 0.0, depth = 0.0;
    for (int k = 0; k < kmt; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      const double us = u_[ks][c], vs = v_[ks][c];
      u_[ks][c] = cosa * us + sina * vs;
      v_[ks][c] = -sina * us + cosa * vs;
      mean_u += u_[ks][c] * dz_layer_[ks];
      mean_v += v_[ks][c] * dz_layer_[ks];
      depth += dz_layer_[ks];
    }
    mean_u /= depth;
    mean_v /= depth;
    for (int k = 0; k < kmt; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      u_[ks][c] += ubar_[c] - mean_u;
      v_[ks][c] += vbar_[c] - mean_v;
    }
  });
}

void OcnModel::vertical_mixing(double dt) {
  const int nz = config_.grid.nz;
  std::vector<double> kv(static_cast<std::size_t>(nz - 1));
  std::vector<double> t_col(static_cast<std::size_t>(nz)),
      s_col(static_cast<std::size_t>(nz)), u_col(static_cast<std::size_t>(nz)),
      v_col(static_cast<std::size_t>(nz));

  for_each_column([&](int i, int j, int kmt) {
    const std::size_t c = field_index(i, j);
    for (int k = 0; k < nz; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      t_col[ks] = temp_[ks][c];
      s_col[ks] = salt_[ks][c];
      u_col[ks] = u_[ks][c];
      v_col[ks] = v_[ks][c];
    }
    MixingColumn column{t_col, s_col, u_col, v_col, dz_center_, kmt};
    canuto_.diffusivities(column, kv);

    // Explicit vertical diffusion with a per-interface stability cap.
    auto diffuse = [&](std::vector<std::vector<double>>& field) {
      for (int k = 0; k + 1 < kmt; ++k) {
        const auto ks = static_cast<std::size_t>(k);
        const double cap = 0.4 * dz_center_[ks] *
                           std::min(dz_layer_[ks], dz_layer_[ks + 1]) / dt;
        const double kv_eff = std::min(kv[ks], cap);
        const double flux = kv_eff *
                            (field[ks + 1][c] - field[ks][c]) / dz_center_[ks];
        field[ks][c] += dt * flux / dz_layer_[ks];
        field[ks + 1][c] -= dt * flux / dz_layer_[ks + 1];
      }
    };
    diffuse(temp_);
    diffuse(salt_);
    diffuse(u_);
    diffuse(v_);
  });
}

void OcnModel::tracer_step(double dt) {
  const int nxl = halo_->nx_local();
  const int nyl = halo_->ny_local();
  const int nz = config_.grid.nz;

  // Level k's update reads only level-k ghosts and writes only level k's
  // interior, so one exchange of every level up front fills the same ghosts
  // a per-level exchange would.
  halo_->exchange(levels_of({&temp_, &salt_, &u_, &v_}));
  for (auto& level : u_) halo_->flip_fold_vector(level);
  for (auto& level : v_) halo_->flip_fold_vector(level);

  for (int k = 0; k < nz; ++k) {
    const auto ks = static_cast<std::size_t>(k);

    // Shared scalar update for one cell — the reference bits. The packed
    // launch below uses it for boundary/land tiles and reproduces it
    // lane-for-lane on interior tiles.
    auto update_cell = [&](const std::vector<double>& field,
                           std::vector<double>& next, int i, int j, double dx,
                           double dy, bool south_open) {
      const std::size_t c = field_index(i, j);
      const double phi = field[c];
      auto neighbor = [&](int di, int dj) {
        if (dj < 0 && !south_open) return phi;
        const int kmt_nb = kmt_local(i + di, j + dj);
        return kmt_nb > k ? field[field_index(i + di, j + dj)] : phi;
      };
      const double phi_e = neighbor(1, 0), phi_w = neighbor(-1, 0);
      const double phi_n = neighbor(0, 1), phi_s = neighbor(0, -1);
      const double uc = u_[ks][c], vc = v_[ks][c];
      // First-order upwind advection (advective form).
      const double adv_x =
          uc >= 0.0 ? uc * (phi - phi_w) / dx : uc * (phi_e - phi) / dx;
      const double adv_y =
          vc >= 0.0 ? vc * (phi - phi_s) / dy : vc * (phi_n - phi) / dy;
      const double lap =
          (phi_e + phi_w - 2.0 * phi) / (dx * dx) +
          (phi_n + phi_s - 2.0 * phi) / (dy * dy);
      next[static_cast<std::size_t>(j * nxl + i)] =
          phi + dt * (-adv_x - adv_y + config_.horizontal_diffusion * lap);
    };

    auto advect_diffuse = [&](std::vector<double>& field) {
      std::vector<double> next(static_cast<std::size_t>(nxl * nyl));
      if (config_.pack_width == 0) {
        pp::parallel_for(
            pp::RangePolicy(0, static_cast<std::size_t>(nyl))
                .on(config_.exec_space)
                .named("ocn:advect_diffuse"),
            [&](std::size_t uj) {
              const int j = static_cast<int>(uj);
              const double dx = dx_m_[uj];
              const double dy = dy_m_[uj];
              const bool south_open = halo_->y0() + j > 0;
              for (int i = 0; i < nxl; ++i) {
                if (!is_ocean_local(i, j, k)) continue;
                update_cell(field, next, i, j, dx, dy, south_open);
              }
            });
      } else {
        // Packed sweep: lanes are consecutive i of one row. A tile whose
        // lanes are all interior ocean (self + 4 neighbors wet at this
        // level, southern boundary open) takes the vector path — five
        // contiguous stencil loads off the halo layout — with every lane
        // evaluating the exact scalar expression tree; any other tile
        // peels to update_cell per lane. Either way the bits match the
        // scalar sweep for every pack width.
        pp::with_pack_width(config_.pack_width, [&]<int N>() {
          const std::size_t stride = static_cast<std::size_t>(nxl + 2);
          const double hd = config_.horizontal_diffusion;
          const double* fld = field.data();
          const double* uu = u_[ks].data();
          const double* vv = v_[ks].data();
          double* nxt = next.data();
          pp::parallel_for(
              pp::PackedRangePolicy(0, static_cast<std::size_t>(nxl * nyl))
                  .widthed(static_cast<std::size_t>(N))
                  .per_row(static_cast<std::size_t>(nxl))
                  .on(config_.exec_space)
                  .named("ocn:advect_diffuse:packed"),
              [&](const pp::PackTile& t) {
                const int j = static_cast<int>(t.offset /
                                               static_cast<std::size_t>(nxl));
                const int i0 = static_cast<int>(t.offset %
                                                static_cast<std::size_t>(nxl));
                const double dx = dx_m_[static_cast<std::size_t>(j)];
                const double dy = dy_m_[static_cast<std::size_t>(j)];
                const bool south_open = halo_->y0() + j > 0;
                bool vec = south_open;
                for (std::size_t l = 0; vec && l < t.lanes; ++l) {
                  const int i = i0 + static_cast<int>(l);
                  vec = kmt_local(i, j) > k && kmt_local(i - 1, j) > k &&
                        kmt_local(i + 1, j) > k && kmt_local(i, j - 1) > k &&
                        kmt_local(i, j + 1) > k;
                }
                if (vec) {
                  using P = pp::Pack<double, N>;
                  const std::size_t c0 = field_index(i0, j);
                  const P phi = pp::pack_load<double, N>(fld + c0, t.lanes);
                  const P phi_e =
                      pp::pack_load<double, N>(fld + c0 + 1, t.lanes);
                  const P phi_w =
                      pp::pack_load<double, N>(fld + c0 - 1, t.lanes);
                  const P phi_n =
                      pp::pack_load<double, N>(fld + c0 + stride, t.lanes);
                  const P phi_s =
                      pp::pack_load<double, N>(fld + c0 - stride, t.lanes);
                  const P uc = pp::pack_load<double, N>(uu + c0, t.lanes);
                  const P vc = pp::pack_load<double, N>(vv + c0, t.lanes);
                  const P adv_x =
                      pp::select(pp::ge_zero(uc), uc * (phi - phi_w) / dx,
                                 uc * (phi_e - phi) / dx);
                  const P adv_y =
                      pp::select(pp::ge_zero(vc), vc * (phi - phi_s) / dy,
                                 vc * (phi_n - phi) / dy);
                  const P lap = (phi_e + phi_w - 2.0 * phi) / (dx * dx) +
                                (phi_n + phi_s - 2.0 * phi) / (dy * dy);
                  const P out = phi + dt * (-adv_x - adv_y + hd * lap);
                  pp::pack_store(nxt + t.offset, out, t.lanes);
                } else {
                  for (std::size_t l = 0; l < t.lanes; ++l) {
                    const int i = i0 + static_cast<int>(l);
                    if (!is_ocean_local(i, j, k)) continue;
                    update_cell(field, next, i, j, dx, dy, south_open);
                  }
                }
              });
        });
      }
      for (int j = 0; j < nyl; ++j)
        for (int i = 0; i < nxl; ++i)
          if (is_ocean_local(i, j, k))
            field[field_index(i, j)] =
                next[static_cast<std::size_t>(j * nxl + i)];
    };
    advect_diffuse(temp_[ks]);
    advect_diffuse(salt_[ks]);
  }
}

void OcnModel::apply_surface_forcing(double dt) {
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = field_index(i, j);
    temp_[0][c] += dt * qnet_[col] / (kRhoSeawater * kCpSeawater * dz_layer_[0]);
    // Freshwater flux dilutes surface salinity.
    salt_[0][c] -= dt * fresh_[col] / constants::kRhoWater * salt_[0][c] /
                   dz_layer_[0];
    ++col;
  }
}

void OcnModel::apply_mixed_precision() {
  if (!config_.mixed_precision) return;
  constexpr std::size_t kGroup = 64;
  precision::round_through_mixed(eta_, kGroup);
  precision::round_through_mixed(ubar_, kGroup);
  precision::round_through_mixed(vbar_, kGroup);
  for (auto& level : temp_) precision::round_through_mixed(level, kGroup);
  for (auto& level : salt_) precision::round_through_mixed(level, kGroup);
}

void OcnModel::run(double start_seconds, double duration_seconds) {
  (void)start_seconds;
  AP3_REQUIRE_MSG(duration_seconds > 0.0, "non-positive coupling window");
  // Subdivide the window into equal baroclinic steps no longer than the CFL
  // step (the coupler aligns windows to the atmosphere; the ocean adapts).
  const double dt_max = config_.baroclinic_dt_seconds();
  const auto nsteps = static_cast<long long>(
      std::ceil(duration_seconds / dt_max - 1e-9));
  const double dt_clinic = duration_seconds / static_cast<double>(nsteps);
  const double dt_baro = dt_clinic / config_.barotropic_substeps;
  for (long long s = 0; s < nsteps; ++s) {
    for (int b = 0; b < config_.barotropic_substeps; ++b)
      barotropic_step(dt_baro);
    baroclinic_step(dt_clinic);
    tracer_step(config_.tracer_dt_seconds());
    vertical_mixing(dt_clinic);
    apply_surface_forcing(dt_clinic);
    apply_mixed_precision();
    if (stall_points_ > 0) {
      const double stall_seconds =
          config_.stall_seconds_per_point * static_cast<double>(stall_points_);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(stall_seconds));
      // Halo waits synchronize fast ranks to the straggler, so wall-clock
      // spans alone under-report the imbalance; export the busy time so the
      // load balancer sees who actually pays for it.
      obs::counter_add(busy_counter_key(), stall_seconds);
    }
    ++steps_;
  }
}

std::vector<std::string> OcnModel::migration_fields(int nz) {
  std::vector<std::string> fields = {"eta", "ubar", "vbar"};
  for (const char* base : {"u", "v", "temp", "salt"})
    for (int k = 0; k < nz; ++k)
      fields.push_back(std::string(base) + std::to_string(k));
  for (const char* f : {"taux", "tauy", "qnet", "fresh"})
    fields.emplace_back(f);
  return fields;
}

void OcnModel::add_measured_cell_weights(std::span<double> weight) const {
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    weight[static_cast<std::size_t>(ocean_gids_[col])] +=
        static_cast<double>(kmt_local(i, j));
    ++col;
  }
}

double OcnModel::migration_bytes_per_weight_unit() const {
  // One weight unit is one wet level: 4 level fields plus the 7 per-column
  // 2-D fields amortized over the column's levels.
  return 8.0 * (4.0 + 7.0 / static_cast<double>(std::max(1, config_.grid.nz)));
}

void OcnModel::export_migration_fields(mct::AttrVect& av) const {
  AP3_REQUIRE(av.num_points() == ocean_gids_.size());
  const int nz = config_.grid.nz;
  auto eta = av.field("eta");
  auto ubar = av.field("ubar");
  auto vbar = av.field("vbar");
  auto taux = av.field("taux");
  auto tauy = av.field("tauy");
  auto qnet = av.field("qnet");
  auto fresh = av.field("fresh");
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = field_index(i, j);
    eta[col] = eta_[c];
    ubar[col] = ubar_[c];
    vbar[col] = vbar_[c];
    taux[col] = taux_[col];
    tauy[col] = tauy_[col];
    qnet[col] = qnet_[col];
    fresh[col] = fresh_[col];
    ++col;
  }
  for (int k = 0; k < nz; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    auto uk = av.field("u" + std::to_string(k));
    auto vk = av.field("v" + std::to_string(k));
    auto tk = av.field("temp" + std::to_string(k));
    auto sk = av.field("salt" + std::to_string(k));
    col = 0;
    for (const auto& [i, j] : active_columns_) {
      const std::size_t c = field_index(i, j);
      uk[col] = u_[ks][c];
      vk[col] = v_[ks][c];
      tk[col] = temp_[ks][c];
      sk[col] = salt_[ks][c];
      ++col;
    }
  }
}

void OcnModel::import_migration_fields(const mct::AttrVect& av) {
  AP3_REQUIRE(av.num_points() == ocean_gids_.size());
  const int nz = config_.grid.nz;
  const auto eta = av.field("eta");
  const auto ubar = av.field("ubar");
  const auto vbar = av.field("vbar");
  const auto taux = av.field("taux");
  const auto tauy = av.field("tauy");
  const auto qnet = av.field("qnet");
  const auto fresh = av.field("fresh");
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = field_index(i, j);
    eta_[c] = eta[col];
    ubar_[c] = ubar[col];
    vbar_[c] = vbar[col];
    taux_[col] = taux[col];
    tauy_[col] = tauy[col];
    qnet_[col] = qnet[col];
    fresh_[col] = fresh[col];
    ++col;
  }
  for (int k = 0; k < nz; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const auto uk = av.field("u" + std::to_string(k));
    const auto vk = av.field("v" + std::to_string(k));
    const auto tk = av.field("temp" + std::to_string(k));
    const auto sk = av.field("salt" + std::to_string(k));
    col = 0;
    for (const auto& [i, j] : active_columns_) {
      const std::size_t c = field_index(i, j);
      u_[ks][c] = uk[col];
      v_[ks][c] = vk[col];
      temp_[ks][c] = tk[col];
      salt_[ks][c] = sk[col];
      ++col;
    }
  }
}

std::uint64_t OcnModel::column_state_hash() const {
  const int nz = config_.grid.nz;
  std::uint64_t sum = 0;
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = field_index(i, j);
    std::uint64_t h = kFnvBasis;
    h = fnv1a_value(h, ocean_gids_[col]);
    h = fnv1a_value(h, eta_[c]);
    h = fnv1a_value(h, ubar_[c]);
    h = fnv1a_value(h, vbar_[c]);
    for (int k = 0; k < nz; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      h = fnv1a_value(h, u_[ks][c]);
      h = fnv1a_value(h, v_[ks][c]);
      h = fnv1a_value(h, temp_[ks][c]);
      h = fnv1a_value(h, salt_[ks][c]);
    }
    h = fnv1a_value(h, taux_[col]);
    h = fnv1a_value(h, tauy_[col]);
    h = fnv1a_value(h, qnet_[col]);
    h = fnv1a_value(h, fresh_[col]);
    sum += h;  // wrapping: rank- and order-independent combine
    ++col;
  }
  return sum;
}

void OcnModel::export_state(mct::AttrVect& o2x) const {
  AP3_REQUIRE(o2x.num_points() == ocean_gids_.size());
  auto sst = o2x.field("sst");
  auto ssh = o2x.field("ssh");
  auto us = o2x.field("us");
  auto vs = o2x.field("vs");
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = field_index(i, j);
    sst[col] = temp_[0][c] + constants::kT0;  // export in Kelvin
    ssh[col] = eta_[c];
    us[col] = u_[0][c];
    vs[col] = v_[0][c];
    ++col;
  }
}

void OcnModel::import_state(const mct::AttrVect& x2o) {
  AP3_REQUIRE(x2o.num_points() == ocean_gids_.size());
  const auto taux = x2o.field("taux");
  const auto tauy = x2o.field("tauy");
  const auto qnet = x2o.field("qnet");
  const auto fresh = x2o.field("fresh");
  std::copy(taux.begin(), taux.end(), taux_.begin());
  std::copy(tauy.begin(), tauy.end(), tauy_.begin());
  std::copy(qnet.begin(), qnet.end(), qnet_.begin());
  std::copy(fresh.begin(), fresh.end(), fresh_.begin());
}

namespace {

/// Flatten per-level halo slices level-major for one checkpoint section.
std::vector<double> flatten_levels(const std::vector<std::vector<double>>& f) {
  std::vector<double> out;
  if (!f.empty()) out.reserve(f.size() * f[0].size());
  for (const auto& level : f) out.insert(out.end(), level.begin(), level.end());
  return out;
}

void unflatten_levels(const std::vector<double>& flat,
                      std::vector<std::vector<double>>& f) {
  std::size_t at = 0;
  for (auto& level : f) {
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(at),
              flat.begin() + static_cast<std::ptrdiff_t>(at + level.size()),
              level.begin());
    at += level.size();
  }
}

std::size_t stack_size(const std::vector<std::vector<double>>& f) {
  return f.empty() ? 0 : f.size() * f[0].size();
}

}  // namespace

std::vector<std::string> OcnModel::checkpoint_section_names() {
  // Keep in checkpoint_sections() order.
  return {"ocn.eta",  "ocn.ubar", "ocn.vbar", "ocn.u",
          "ocn.v",    "ocn.temp", "ocn.salt", "ocn.taux",
          "ocn.tauy", "ocn.qnet", "ocn.fresh", "ocn.steps"};
}

std::vector<io::Section> OcnModel::checkpoint_sections() const {
  std::vector<io::Section> out;
  out.push_back({"ocn.eta", io::local_field(eta_)});
  out.push_back({"ocn.ubar", io::local_field(ubar_)});
  out.push_back({"ocn.vbar", io::local_field(vbar_)});
  out.push_back({"ocn.u", io::local_field(flatten_levels(u_))});
  out.push_back({"ocn.v", io::local_field(flatten_levels(v_))});
  out.push_back({"ocn.temp", io::local_field(flatten_levels(temp_))});
  out.push_back({"ocn.salt", io::local_field(flatten_levels(salt_))});
  out.push_back({"ocn.taux", io::local_field(taux_)});
  out.push_back({"ocn.tauy", io::local_field(tauy_)});
  out.push_back({"ocn.qnet", io::local_field(qnet_)});
  out.push_back({"ocn.fresh", io::local_field(fresh_)});
  out.push_back({"ocn.steps", io::rank_scalar(comm_.rank(),
                                              static_cast<double>(steps_))});
  return out;
}

void OcnModel::restore_sections(const std::vector<io::Section>& sections) {
  eta_ = io::section_values(sections, "ocn.eta", eta_.size());
  ubar_ = io::section_values(sections, "ocn.ubar", ubar_.size());
  vbar_ = io::section_values(sections, "ocn.vbar", vbar_.size());
  unflatten_levels(io::section_values(sections, "ocn.u", stack_size(u_)), u_);
  unflatten_levels(io::section_values(sections, "ocn.v", stack_size(v_)), v_);
  unflatten_levels(io::section_values(sections, "ocn.temp", stack_size(temp_)),
                   temp_);
  unflatten_levels(io::section_values(sections, "ocn.salt", stack_size(salt_)),
                   salt_);
  taux_ = io::section_values(sections, "ocn.taux", taux_.size());
  tauy_ = io::section_values(sections, "ocn.tauy", tauy_.size());
  qnet_ = io::section_values(sections, "ocn.qnet", qnet_.size());
  fresh_ = io::section_values(sections, "ocn.fresh", fresh_.size());
  steps_ =
      static_cast<long long>(io::section_values(sections, "ocn.steps", 1)[0]);
}

double OcnModel::total_volume() const {
  double local = 0.0;
  for (const auto& [i, j] : active_columns_)
    local += eta_[field_index(i, j)] * area_m2_[static_cast<std::size_t>(j)];
  return comm_.allreduce_value(local, par::ReduceOp::kSum);
}

double OcnModel::total_heat_content() const {
  double local = 0.0;
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = field_index(i, j);
    const int kmt = kmt_local(i, j);
    for (int k = 0; k < kmt; ++k)
      local += temp_[static_cast<std::size_t>(k)][c] *
               dz_layer_[static_cast<std::size_t>(k)] *
               area_m2_[static_cast<std::size_t>(j)];
  }
  return comm_.allreduce_value(local, par::ReduceOp::kSum);
}

double OcnModel::mean_sst() const {
  double sum = 0.0, area = 0.0;
  for (const auto& [i, j] : active_columns_) {
    sum += temp_[0][field_index(i, j)] * area_m2_[static_cast<std::size_t>(j)];
    area += area_m2_[static_cast<std::size_t>(j)];
  }
  return comm_.allreduce_value(sum, par::ReduceOp::kSum) /
         comm_.allreduce_value(area, par::ReduceOp::kSum);
}

double OcnModel::max_current() const {
  double local = 0.0;
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = field_index(i, j);
    const int kmt = kmt_local(i, j);
    for (int k = 0; k < kmt; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      local = std::max(local, u_[ks][c] * u_[ks][c] + v_[ks][c] * v_[ks][c]);
    }
  }
  return std::sqrt(comm_.allreduce_value(local, par::ReduceOp::kMax));
}

double OcnModel::max_eta() const {
  double local = 0.0;
  for (const auto& [i, j] : active_columns_)
    local = std::max(local, std::abs(eta_[field_index(i, j)]));
  return comm_.allreduce_value(local, par::ReduceOp::kMax);
}

std::vector<double> OcnModel::surface_kinetic_energy() const {
  std::vector<double> out;
  out.reserve(active_columns_.size());
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = field_index(i, j);
    out.push_back(0.5 * (u_[0][c] * u_[0][c] + v_[0][c] * v_[0][c]));
  }
  return out;
}

std::vector<double> OcnModel::surface_rossby_number() const {
  std::vector<double> out;
  out.reserve(active_columns_.size());
  for (const auto& [i, j] : active_columns_) {
    const double dx = dx_m_[static_cast<std::size_t>(j)];
    const double dy = dy_m_[static_cast<std::size_t>(j)];
    const double f = coriolis_[static_cast<std::size_t>(j)];
    auto at = [&](int di, int dj, const std::vector<double>& field,
                  double fallback) {
      const int kmt_nb = kmt_local(i + di, j + dj);
      return kmt_nb > 0 ? field[field_index(i + di, j + dj)] : fallback;
    };
    const std::size_t c = field_index(i, j);
    const double dvdx = (at(1, 0, v_[0], v_[0][c]) - at(-1, 0, v_[0], v_[0][c])) /
                        (2.0 * dx);
    const double dudy = (at(0, 1, u_[0], u_[0][c]) - at(0, -1, u_[0], u_[0][c])) /
                        (2.0 * dy);
    const double zeta = dvdx - dudy;
    const double f_safe = std::abs(f) > 1e-6 ? f : (f >= 0 ? 1e-6 : -1e-6);
    out.push_back(zeta / f_safe);
  }
  return out;
}

double OcnModel::local_active_fraction() const {
  long long active = 0;
  for (int j = 0; j < ny_local(); ++j)
    for (int i = 0; i < nx_local(); ++i) active += kmt_local(i, j);
  const long long total =
      static_cast<long long>(nx_local()) * ny_local() * config_.grid.nz;
  return total == 0 ? 0.0 : static_cast<double>(active) /
                                static_cast<double>(total);
}

}  // namespace ap3::ocn
