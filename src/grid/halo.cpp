#include "grid/halo.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "grid/partition.hpp"

namespace ap3::grid {

namespace {
constexpr int kTagWest = 9101;
constexpr int kTagEast = 9102;
constexpr int kTagSouth = 9103;
constexpr int kTagNorth = 9104;
constexpr int kTagFold = 9105;
constexpr int kTagGraph = 9106;

// Copies one id's `width` values and returns the end of the destination.
// Width 1 is the common case; a plain store there avoids a memmove call per
// id.
double* copy_values(const double* src, std::size_t width, double* dst) {
  if (width == 1) {
    *dst = *src;
    return dst + 1;
  }
  return std::copy(src, src + width, dst);
}
}  // namespace

namespace {
BlockCuts uniform_cuts(int nx_global, int ny_global, int px, int py) {
  BlockCuts cuts;
  cuts.x.push_back(0);
  for (int b = 0; b < px; ++b)
    cuts.x.push_back(partition_1d(nx_global, px, b).end);
  cuts.y.push_back(0);
  for (int b = 0; b < py; ++b)
    cuts.y.push_back(partition_1d(ny_global, py, b).end);
  return cuts;
}
}  // namespace

BlockHalo::BlockHalo(const par::Comm& comm, int nx_global, int ny_global,
                     int px, int py, bool north_fold)
    : BlockHalo(comm, nx_global, ny_global,
                uniform_cuts(nx_global, ny_global, px, py), north_fold) {}

BlockHalo::BlockHalo(const par::Comm& comm, int nx_global, int ny_global,
                     const BlockCuts& cuts, bool north_fold)
    : comm_(comm),
      nx_global_(nx_global),
      ny_global_(ny_global),
      px_(cuts.px()),
      py_(cuts.py()),
      north_fold_(north_fold),
      x_cuts_(cuts.x) {
  AP3_REQUIRE_MSG(comm.size() == px_ * py_,
                  "BlockHalo: comm size " << comm.size() << " != " << px_ << "x"
                                          << py_);
  AP3_REQUIRE_MSG(cuts.x.front() == 0 && cuts.x.back() == nx_global &&
                      cuts.y.front() == 0 && cuts.y.back() == ny_global,
                  "BlockHalo: cut lines do not span the global grid");
  const int rank = comm.rank();
  bx_ = rank % px_;
  by_ = rank / px_;
  x0_ = static_cast<int>(cuts.x[static_cast<std::size_t>(bx_)]);
  y0_ = static_cast<int>(cuts.y[static_cast<std::size_t>(by_)]);
  nx_local_ =
      static_cast<int>(cuts.x[static_cast<std::size_t>(bx_) + 1]) - x0_;
  ny_local_ =
      static_cast<int>(cuts.y[static_cast<std::size_t>(by_) + 1]) - y0_;
  AP3_REQUIRE_MSG(nx_local_ > 0 && ny_local_ > 0,
                  "BlockHalo: empty block for rank " << rank);

  west_rank_ = by_ * px_ + (bx_ - 1 + px_) % px_;
  east_rank_ = by_ * px_ + (bx_ + 1) % px_;
  south_rank_ = by_ > 0 ? (by_ - 1) * px_ + bx_ : -1;
  north_rank_ = by_ < py_ - 1 ? (by_ + 1) * px_ + bx_ : -1;
}

void BlockHalo::exchange(std::span<std::vector<double>* const> fields) const {
  const auto nxl = static_cast<std::size_t>(nx_local_);
  const auto nyl = static_cast<std::size_t>(ny_local_);
  const std::size_t nf = fields.size();
  for (const std::vector<double>* field : fields)
    AP3_REQUIRE(field->size() == (nxl + 2) * (nyl + 2));
  if (nf == 0) return;

  // One staging buffer per call. Sends are eager (the transport copies on
  // post), so every phase packs, posts and unpacks through the same storage.
  // Layout is field-major: field f's edge occupies [f·len, (f+1)·len).
  std::vector<double> buf(nf * std::max(nxl, nyl));
  auto send = [&](std::size_t n, int dest, int tag) {
    comm_.send(std::span<const double>(buf.data(), n), dest, tag);
  };
  auto recv = [&](std::size_t n, int src, int tag) {
    const std::size_t got =
        comm_.recv(std::span<double>(buf.data(), n), src, tag);
    AP3_REQUIRE(got == n);
  };
  auto pack_col = [&](int i) {
    for (std::size_t f = 0; f < nf; ++f)
      for (int j = 0; j < ny_local_; ++j)
        buf[f * nyl + static_cast<std::size_t>(j)] =
            (*fields[f])[halo_index(i, j)];
  };
  auto unpack_col = [&](int i) {
    for (std::size_t f = 0; f < nf; ++f)
      for (int j = 0; j < ny_local_; ++j)
        (*fields[f])[halo_index(i, j)] =
            buf[f * nyl + static_cast<std::size_t>(j)];
  };
  auto pack_row = [&](int j) {
    for (std::size_t f = 0; f < nf; ++f)
      for (int i = 0; i < nx_local_; ++i)
        buf[f * nxl + static_cast<std::size_t>(i)] =
            (*fields[f])[halo_index(i, j)];
  };
  auto unpack_row = [&](int j) {
    for (std::size_t f = 0; f < nf; ++f)
      for (int i = 0; i < nx_local_; ++i)
        (*fields[f])[halo_index(i, j)] =
            buf[f * nxl + static_cast<std::size_t>(i)];
  };
  // Zero-gradient ghost row: copy interior row `from` into ghost row `to`.
  auto copy_row = [&](int from, int to) {
    for (std::vector<double>* field : fields)
      for (int i = 0; i < nx_local_; ++i)
        (*field)[halo_index(i, to)] = (*field)[halo_index(i, from)];
  };

  // --- east/west (periodic) ---------------------------------------------
  // My west edge becomes my west-neighbor's east ghost and vice versa.
  pack_col(0);
  send(nf * nyl, west_rank_, kTagEast);
  pack_col(nx_local_ - 1);
  send(nf * nyl, east_rank_, kTagWest);
  recv(nf * nyl, west_rank_, kTagWest);
  unpack_col(-1);
  recv(nf * nyl, east_rank_, kTagEast);
  unpack_col(nx_local_);

  // --- south/north interior ------------------------------------------------
  if (south_rank_ >= 0) {
    pack_row(0);
    send(nf * nxl, south_rank_, kTagNorth);
  }
  if (north_rank_ >= 0) {
    pack_row(ny_local_ - 1);
    send(nf * nxl, north_rank_, kTagSouth);
  }
  if (south_rank_ >= 0) {
    recv(nf * nxl, south_rank_, kTagSouth);
    unpack_row(-1);
  } else {
    copy_row(0, -1);  // closed southern boundary
  }
  if (north_rank_ >= 0) {
    recv(nf * nxl, north_rank_, kTagNorth);
    unpack_row(ny_local_);
  } else if (!north_fold_) {
    copy_row(ny_local_ - 1, ny_local_);
  }

  // --- tripolar north fold -------------------------------------------------
  // Ghost north of global top row at global column g mirrors the top-row
  // interior at column nx-1-g. Piecewise exchange with every top-row block
  // whose x-range intersects the mirror of ours.
  if (north_fold_ && north_rank_ < 0) {
    const int rank_row_base = by_ * px_;
    // Send phase: peer p needs mirror of its range; what I own of that is
    // my x-range intersected with mirror(p-range).
    for (int pbx = 0; pbx < px_; ++pbx) {
      const Range1D pr = {x_cuts_[static_cast<std::size_t>(pbx)],
                          x_cuts_[static_cast<std::size_t>(pbx) + 1]};
      // Mirror of [pr.begin, pr.end) is [nx-pr.end, nx-pr.begin).
      const int mbegin = nx_global_ - static_cast<int>(pr.end);
      const int mend = nx_global_ - static_cast<int>(pr.begin);
      const int lo = std::max(x0_, mbegin);
      const int hi = std::min(x0_ + nx_local_, mend);
      if (lo >= hi) continue;
      const auto len = static_cast<std::size_t>(hi - lo);
      for (std::size_t f = 0; f < nf; ++f)
        for (int g = lo; g < hi; ++g)
          buf[f * len + static_cast<std::size_t>(g - lo)] =
              (*fields[f])[halo_index(g - x0_, ny_local_ - 1)];
      send(nf * len, rank_row_base + pbx, kTagFold);
    }
    // Receive phase: my ghosts [x0, x0+nxl) mirror to [nx-x0-nxl, nx-x0);
    // collect from every owner of that interval.
    const int need_begin = nx_global_ - (x0_ + nx_local_);
    const int need_end = nx_global_ - x0_;
    for (int pbx = 0; pbx < px_; ++pbx) {
      const Range1D pr = {x_cuts_[static_cast<std::size_t>(pbx)],
                          x_cuts_[static_cast<std::size_t>(pbx) + 1]};
      const int lo = std::max(static_cast<int>(pr.begin), need_begin);
      const int hi = std::min(static_cast<int>(pr.end), need_end);
      if (lo >= hi) continue;
      const auto len = static_cast<std::size_t>(hi - lo);
      recv(nf * len, rank_row_base + pbx, kTagFold);
      // Chunk entry c holds the top-row value at global mirror column
      // m = lo + c; it fills my ghost at global column g = nx-1-m.
      for (std::size_t f = 0; f < nf; ++f)
        for (int c = 0; c < hi - lo; ++c) {
          const int g = nx_global_ - 1 - (lo + c);
          AP3_REQUIRE(g >= x0_ && g < x0_ + nx_local_);
          (*fields[f])[halo_index(g - x0_, ny_local_)] =
              buf[f * len + static_cast<std::size_t>(c)];
        }
    }
  }
}

void BlockHalo::flip_fold_vector(std::vector<double>& field) const {
  if (!north_fold_ || north_rank_ >= 0) return;
  for (int i = 0; i < nx_local_; ++i)
    field[halo_index(i, ny_local_)] = -field[halo_index(i, ny_local_)];
}

GraphHalo::GraphHalo(const par::Comm& comm, std::vector<std::int64_t> owned,
                     std::vector<std::int64_t> ghosts,
                     const std::function<int(std::int64_t)>& owner_of)
    : comm_(comm), owned_(std::move(owned)), ghosts_(std::move(ghosts)) {
  AP3_REQUIRE(std::is_sorted(owned_.begin(), owned_.end()));

  // Group ghost requests by owning rank, preserving ghost order per rank.
  const auto nranks = static_cast<std::size_t>(comm.size());
  std::vector<std::vector<std::size_t>> by_owner(nranks);
  for (std::size_t g = 0; g < ghosts_.size(); ++g) {
    const int owner = owner_of(ghosts_[g]);
    AP3_REQUIRE_MSG(owner != comm.rank(), "ghost id owned locally");
    by_owner[static_cast<std::size_t>(owner)].push_back(g);
  }
  std::vector<std::int64_t> flat;  // requested ids, grouped by owner
  std::vector<std::size_t> counts(nranks, 0);
  flat.reserve(ghosts_.size());
  recv_plan_.index.reserve(ghosts_.size());
  for (std::size_t r = 0; r < nranks; ++r) {
    counts[r] = by_owner[r].size();
    if (counts[r] == 0) continue;
    for (std::size_t g : by_owner[r]) {
      recv_plan_.index.push_back(g);
      flat.push_back(ghosts_[g]);
    }
    recv_plan_.end_peer(static_cast<int>(r));
  }

  // Handshake: alltoallv of requested ids tells each rank what to send.
  std::vector<std::size_t> incoming_counts;
  const std::vector<std::int64_t> incoming = comm.alltoallv(
      std::span<const std::int64_t>(flat), std::span<const std::size_t>(counts),
      incoming_counts);

  send_plan_.index.reserve(incoming.size());
  std::size_t offset = 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    const std::size_t n = incoming_counts[r];
    if (n == 0) continue;
    for (std::size_t k = 0; k < n; ++k) {
      const std::int64_t id = incoming[offset + k];
      const auto it = std::lower_bound(owned_.begin(), owned_.end(), id);
      AP3_REQUIRE_MSG(it != owned_.end() && *it == id,
                      "rank asked for id " << id << " we do not own");
      send_plan_.index.push_back(static_cast<std::size_t>(it - owned_.begin()));
    }
    send_plan_.end_peer(static_cast<int>(r));
    offset += n;
  }
}

void GraphHalo::exchange(std::span<const Field> fields) const {
  std::size_t width_sum = 0;
  for (const Field& field : fields) {
    AP3_REQUIRE(field.owned.size() == owned_.size() * field.width);
    AP3_REQUIRE(field.ghosts.size() == ghosts_.size() * field.width);
    width_sum += field.width;
  }
  if (width_sum == 0) return;
  // One payload buffer per call, sized for the larger direction; sends are
  // eager, so the receive phase reuses it. A peer's message is field-major:
  // field f's values for that peer's plan-ordered ids, `width` per id.
  std::vector<double> payload(
      width_sum * std::max(send_plan_.index.size(), recv_plan_.index.size()));
  for (std::size_t n = 0; n < send_plan_.peers.size(); ++n) {
    const std::size_t begin = send_plan_.offsets[n];
    const std::size_t end = send_plan_.offsets[n + 1];
    double* out = payload.data();
    for (const Field& field : fields)
      for (std::size_t k = begin; k < end; ++k)
        out = copy_values(
            field.owned.data() + send_plan_.index[k] * field.width,
            field.width, out);
    comm_.send(std::span<const double>(payload.data(), out),
               send_plan_.peers[n], kTagGraph);
  }
  for (std::size_t n = 0; n < recv_plan_.peers.size(); ++n) {
    const std::size_t begin = recv_plan_.offsets[n];
    const std::size_t end = recv_plan_.offsets[n + 1];
    const std::size_t len = width_sum * (end - begin);
    const std::size_t got = comm_.recv(std::span<double>(payload.data(), len),
                                       recv_plan_.peers[n], kTagGraph);
    AP3_REQUIRE(got == len);
    const double* in = payload.data();
    for (const Field& field : fields)
      for (std::size_t k = begin; k < end; ++k) {
        copy_values(in, field.width,
                    field.ghosts.data() + recv_plan_.index[k] * field.width);
        in += field.width;
      }
  }
}

}  // namespace ap3::grid
