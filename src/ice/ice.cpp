#include "ice/ice.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "base/constants.hpp"
#include "base/error.hpp"
#include "base/hash.hpp"
#include "obs/obs.hpp"

namespace ap3::ice {

using constants::kDegToRad;
using constants::kEarthRadiusM;
using constants::kPi;
using constants::kSeawaterFreeze;
using constants::kT0;

IceModel::IceModel(const par::Comm& comm, const IceConfig& config,
                   std::shared_ptr<const grid::TripolarGrid> grid)
    : IceModel(comm, config,
               grid::BlockPartition2D::balanced(config.grid.nx, config.grid.ny,
                                                comm.size())
                   .cuts(),
               std::move(grid)) {}

IceModel::IceModel(const par::Comm& comm, const IceConfig& config,
                   const grid::BlockCuts& cuts,
                   std::shared_ptr<const grid::TripolarGrid> grid)
    : comm_(comm),
      config_(config),
      grid_(grid ? std::move(grid)
                 : std::make_shared<const grid::TripolarGrid>(config.grid)),
      partition_(config.grid.nx, config.grid.ny, cuts) {
  AP3_REQUIRE_MSG(grid_->config() == config_.grid,
                  "IceModel: shared grid was built for a different "
                  "TripolarConfig than this model's config.grid");
  halo_ = std::make_unique<grid::BlockHalo>(comm, config_.grid.nx,
                                            config_.grid.ny, cuts,
                                            /*north_fold=*/true);
  const int nxl = halo_->nx_local();
  const int nyl = halo_->ny_local();

  const double dlat =
      (config_.grid.lat_north - config_.grid.lat_south) * kDegToRad /
      config_.grid.ny;
  area_m2_.resize(static_cast<std::size_t>(nyl));
  for (int j = 0; j < nyl; ++j) {
    const double lat = grid_->lat_deg(halo_->y0() + j) * kDegToRad;
    const double coslat = std::max(0.05, std::cos(lat));
    area_m2_[static_cast<std::size_t>(j)] =
        (kEarthRadiusM * coslat * 2.0 * kPi / config_.grid.nx) *
        (kEarthRadiusM * dlat);
  }

  for (int j = 0; j < nyl; ++j) {
    for (int i = 0; i < nxl; ++i) {
      if (grid_->kmt(halo_->x0() + i, halo_->y0() + j) > 0) {
        active_columns_.push_back({i, j});
        ocean_gids_.push_back(
            static_cast<std::int64_t>(halo_->y0() + j) * config_.grid.nx +
            (halo_->x0() + i));
      }
    }
  }
  gsmap_ = mct::GlobalSegMap::build(comm, ocean_gids_);

  const std::size_t ncols = ocean_gids_.size();
  aice_.assign(ncols, 0.0);
  hice_.assign(ncols, 0.0);
  sst_.assign(ncols, 285.0);
  tbot_.assign(ncols, 285.0);
  us_.assign(ncols, 0.0);
  vs_.assign(ncols, 0.0);

  // Initial polar ice caps where the climatological surface is cold.
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    const double lat = grid_->lat_deg(halo_->y0() + j);
    if (std::abs(lat) > 65.0) {
      hice_[col] = 1.5 * (std::abs(lat) - 65.0) / 25.0;
      aice_[col] = std::min(1.0, hice_[col] / config_.full_cover_thickness);
    }
    ++col;
  }

  if (config_.stall_seconds_per_point > 0.0) {
    for (const auto& [i, j] : active_columns_) {
      const int gi = halo_->x0() + i;
      const int gj = halo_->y0() + j;
      const bool in_band =
          (config_.stall_i_begin >= 0 && gi >= config_.stall_i_begin) ||
          (config_.stall_j_begin >= 0 && gj >= config_.stall_j_begin);
      if (in_band) ++stall_points_;
    }
  }
}

std::vector<std::string> IceModel::migration_fields() {
  return {"aice", "hice", "sst", "tbot", "us", "vs"};
}

void IceModel::add_measured_cell_weights(std::span<double> weight) const {
  for (std::size_t col = 0; col < ocean_gids_.size(); ++col)
    weight[static_cast<std::size_t>(ocean_gids_[col])] += 1.0 + aice_[col];
}

double IceModel::migration_bytes_per_weight_unit() const {
  // 6 per-column doubles; a column weighs between 1 (open water) and 2
  // (full cover), so charge the open-water rate (conservative per unit).
  return 8.0 * 6.0;
}

void IceModel::export_migration_fields(mct::AttrVect& av) const {
  AP3_REQUIRE(av.num_points() == ocean_gids_.size());
  const std::vector<const std::vector<double>*> state = {&aice_, &hice_, &sst_,
                                                         &tbot_, &us_,   &vs_};
  const std::vector<std::string> names = migration_fields();
  for (std::size_t f = 0; f < names.size(); ++f) {
    auto out = av.field(names[f]);
    std::copy(state[f]->begin(), state[f]->end(), out.begin());
  }
}

void IceModel::import_migration_fields(const mct::AttrVect& av) {
  AP3_REQUIRE(av.num_points() == ocean_gids_.size());
  const std::vector<std::vector<double>*> state = {&aice_, &hice_, &sst_,
                                                   &tbot_, &us_,   &vs_};
  const std::vector<std::string> names = migration_fields();
  for (std::size_t f = 0; f < names.size(); ++f) {
    const auto in = av.field(names[f]);
    std::copy(in.begin(), in.end(), state[f]->begin());
  }
}

std::uint64_t IceModel::column_state_hash() const {
  std::uint64_t sum = 0;
  for (std::size_t col = 0; col < ocean_gids_.size(); ++col) {
    std::uint64_t h = kFnvBasis;
    h = fnv1a_value(h, ocean_gids_[col]);
    h = fnv1a_value(h, aice_[col]);
    h = fnv1a_value(h, hice_[col]);
    h = fnv1a_value(h, sst_[col]);
    h = fnv1a_value(h, tbot_[col]);
    h = fnv1a_value(h, us_[col]);
    h = fnv1a_value(h, vs_[col]);
    sum += h;  // wrapping: rank- and order-independent combine
  }
  return sum;
}

std::vector<std::string> IceModel::export_fields() { return {"ifrac", "hice"}; }
std::vector<std::string> IceModel::import_fields() {
  return {"sst", "tbot", "us", "vs"};
}

void IceModel::run(double start_seconds, double duration_seconds) {
  (void)start_seconds;
  AP3_REQUIRE(duration_seconds > 0.0);
  const auto nsteps = static_cast<long long>(
      std::ceil(duration_seconds / config_.dt_seconds - 1e-9));
  const double dt = duration_seconds / static_cast<double>(nsteps);
  for (long long s = 0; s < nsteps; ++s) {
    thermodynamics(dt);
    dynamics(dt);
    if (stall_points_ > 0) {
      const double stall_seconds =
          config_.stall_seconds_per_point * static_cast<double>(stall_points_);
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_seconds));
      // Halo waits synchronize fast ranks to the straggler; export the busy
      // time so the load balancer sees who actually pays for it.
      obs::counter_add(busy_counter_key(), stall_seconds);
    }
    ++steps_;
  }
}

void IceModel::thermodynamics(double dt) {
  const double freeze_k = kSeawaterFreeze + kT0;  // 271.35 K
  for (std::size_t col = 0; col < hice_.size(); ++col) {
    // Freezing deficit weights the ocean state twice as much as the air.
    const double deficit =
        (freeze_k - sst_[col]) + 0.5 * (freeze_k - tbot_[col]);
    double& h = hice_[col];
    if (deficit > 0.0) {
      h += dt * config_.growth_rate * deficit;
    } else {
      h -= dt * config_.melt_rate * (-deficit);
    }
    h = std::clamp(h, 0.0, config_.max_thickness);
    aice_[col] = std::min(1.0, h / config_.full_cover_thickness);
  }
}

void IceModel::dynamics(double dt) {
  const int nxl = halo_->nx_local();
  const int nyl = halo_->ny_local();
  const std::size_t slots =
      static_cast<std::size_t>(nxl + 2) * static_cast<std::size_t>(nyl + 2);

  // Scatter compact state to halo-layout planes.
  std::vector<double> h2(slots, 0.0), a2(slots, 0.0), u2(slots, 0.0),
      v2(slots, 0.0);
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = halo_->halo_index(i, j);
    h2[c] = hice_[col];
    a2[c] = aice_[col];
    u2[c] = us_[col];
    v2[c] = vs_[col];
    ++col;
  }
  std::vector<double>* planes[] = {&h2, &a2, &u2, &v2};
  halo_->exchange(planes);
  halo_->flip_fold_vector(u2);
  halo_->flip_fold_vector(v2);

  const double dlat =
      (config_.grid.lat_north - config_.grid.lat_south) * kDegToRad /
      config_.grid.ny;
  const double dy = kEarthRadiusM * dlat;

  auto advect = [&](std::vector<double>& plane) {
    std::vector<double> next = plane;
    std::size_t c2 = 0;
    for (const auto& [i, j] : active_columns_) {
      const std::size_t c = halo_->halo_index(i, j);
      const double lat = grid_->lat_deg(halo_->y0() + j) * kDegToRad;
      const double dx = kEarthRadiusM * std::max(0.05, std::cos(lat)) * 2.0 *
                        kPi / config_.grid.nx;
      auto nb = [&](int di, int dj) {
        if (halo_->y0() + j + dj < 0) return plane[c];
        const int gi =
            ((halo_->x0() + i + di) % config_.grid.nx + config_.grid.nx) %
            config_.grid.nx;
        int gj = halo_->y0() + j + dj;
        int gii = gi;
        if (gj >= config_.grid.ny) {  // fold
          gj = config_.grid.ny - 1;
          gii = config_.grid.nx - 1 - gi;
        }
        return grid_->kmt(gii, gj) > 0 ? plane[halo_->halo_index(i + di, j + dj)]
                                       : plane[c];
      };
      const double uc = u2[c], vc = v2[c];
      const double adv_x = uc >= 0.0 ? uc * (plane[c] - nb(-1, 0)) / dx
                                     : uc * (nb(1, 0) - plane[c]) / dx;
      const double adv_y = vc >= 0.0 ? vc * (plane[c] - nb(0, -1)) / dy
                                     : vc * (nb(0, 1) - plane[c]) / dy;
      next[c] = plane[c] - dt * (adv_x + adv_y);
      if (next[c] < 0.0) next[c] = 0.0;
      ++c2;
    }
    plane.swap(next);
  };
  advect(h2);
  advect(a2);

  col = 0;
  for (const auto& [i, j] : active_columns_) {
    const std::size_t c = halo_->halo_index(i, j);
    hice_[col] = std::min(h2[c], config_.max_thickness);
    aice_[col] = std::clamp(a2[c], 0.0, 1.0);
    ++col;
  }
}

void IceModel::export_state(mct::AttrVect& i2x) const {
  AP3_REQUIRE(i2x.num_points() == ocean_gids_.size());
  auto ifrac = i2x.field("ifrac");
  auto hice = i2x.field("hice");
  std::copy(aice_.begin(), aice_.end(), ifrac.begin());
  std::copy(hice_.begin(), hice_.end(), hice.begin());
}

void IceModel::import_state(const mct::AttrVect& x2i) {
  AP3_REQUIRE(x2i.num_points() == ocean_gids_.size());
  const auto sst = x2i.field("sst");
  const auto tbot = x2i.field("tbot");
  const auto us = x2i.field("us");
  const auto vs = x2i.field("vs");
  std::copy(sst.begin(), sst.end(), sst_.begin());
  std::copy(tbot.begin(), tbot.end(), tbot_.begin());
  std::copy(us.begin(), us.end(), us_.begin());
  std::copy(vs.begin(), vs.end(), vs_.begin());
}

std::vector<std::string> IceModel::checkpoint_section_names() {
  // Keep in checkpoint_sections() order.
  return {"ice.aice", "ice.hice", "ice.sst", "ice.tbot",
          "ice.us",   "ice.vs",   "ice.steps"};
}

std::vector<io::Section> IceModel::checkpoint_sections() const {
  std::vector<io::Section> out;
  out.push_back({"ice.aice", io::local_field(aice_)});
  out.push_back({"ice.hice", io::local_field(hice_)});
  out.push_back({"ice.sst", io::local_field(sst_)});
  out.push_back({"ice.tbot", io::local_field(tbot_)});
  out.push_back({"ice.us", io::local_field(us_)});
  out.push_back({"ice.vs", io::local_field(vs_)});
  out.push_back({"ice.steps", io::rank_scalar(comm_.rank(),
                                              static_cast<double>(steps_))});
  return out;
}

void IceModel::restore_sections(const std::vector<io::Section>& sections) {
  aice_ = io::section_values(sections, "ice.aice", aice_.size());
  hice_ = io::section_values(sections, "ice.hice", hice_.size());
  sst_ = io::section_values(sections, "ice.sst", sst_.size());
  tbot_ = io::section_values(sections, "ice.tbot", tbot_.size());
  us_ = io::section_values(sections, "ice.us", us_.size());
  vs_ = io::section_values(sections, "ice.vs", vs_.size());
  steps_ =
      static_cast<long long>(io::section_values(sections, "ice.steps", 1)[0]);
}

double IceModel::ice_area_fraction() const {
  double ice = 0.0, ocean = 0.0;
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    const double area = area_m2_[static_cast<std::size_t>(j)];
    ice += aice_[col] * area;
    ocean += area;
    ++col;
  }
  return comm_.allreduce_value(ice, par::ReduceOp::kSum) /
         comm_.allreduce_value(ocean, par::ReduceOp::kSum);
}

double IceModel::total_ice_volume() const {
  double local = 0.0;
  std::size_t col = 0;
  for (const auto& [i, j] : active_columns_) {
    local += hice_[col] * area_m2_[static_cast<std::size_t>(j)];
    ++col;
  }
  return comm_.allreduce_value(local, par::ReduceOp::kSum);
}

}  // namespace ap3::ice
