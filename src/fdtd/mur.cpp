#include "fdtd/mur.h"

#include <stdexcept>

namespace fdtdmm {

using namespace constants;

MurBoundary::MurBoundary(Grid3* grid) : g_(grid) {
  if (g_ == nullptr) throw std::invalid_argument("MurBoundary: null grid");
  const double cdt = kC0 * g_->dt();
  cx_ = (cdt - g_->dx()) / (cdt + g_->dx());
  cy_ = (cdt - g_->dy()) / (cdt + g_->dy());
  cz_ = (cdt - g_->dz()) / (cdt + g_->dz());

  const std::size_t nx = g_->nx(), ny = g_->ny(), nz = g_->nz();
  auto resize = [](FaceStore& f, std::size_t n1, std::size_t n2) {
    f.t1_l0.assign(n1, 0.0);
    f.t1_l1.assign(n1, 0.0);
    f.t2_l0.assign(n2, 0.0);
    f.t2_l1.assign(n2, 0.0);
  };
  // x faces: tangential Ey (ny x (nz+1)) and Ez ((ny+1) x nz).
  resize(x0_, ny * (nz + 1), (ny + 1) * nz);
  resize(x1_, ny * (nz + 1), (ny + 1) * nz);
  // y faces: tangential Ex (nx x (nz+1)) and Ez ((nx+1) x nz).
  resize(y0_, nx * (nz + 1), (nx + 1) * nz);
  resize(y1_, nx * (nz + 1), (nx + 1) * nz);
  // z faces: tangential Ex (nx x (ny+1)) and Ey ((nx+1) x ny).
  resize(z0_, nx * (ny + 1), (nx + 1) * ny);
  resize(z1_, nx * (ny + 1), (nx + 1) * ny);
}

void MurBoundary::snapshotPlane(std::size_t i) {
  Grid3& g = *g_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();

  // ---- x = 0 / x = nx faces: Ey and Ez of the boundary planes and their
  // neighbours (plane 1 and plane nx-1).
  auto save_x = [&](std::vector<double>& t1, std::vector<double>& t2) {
    std::size_t p = 0;
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t k = 0; k <= nz; ++k, ++p) t1[p] = g.ey(i, j, k);
    p = 0;
    for (std::size_t j = 0; j <= ny; ++j)
      for (std::size_t k = 0; k < nz; ++k, ++p) t2[p] = g.ez(i, j, k);
  };
  if (i == 0) save_x(x0_.t1_l0, x0_.t2_l0);
  if (i == 1) save_x(x0_.t1_l1, x0_.t2_l1);
  if (i == nx) save_x(x1_.t1_l0, x1_.t2_l0);
  if (i + 1 == nx) save_x(x1_.t1_l1, x1_.t2_l1);

  // ---- y faces: Ex and Ez.
  if (i < nx) {
    for (std::size_t k = 0, p = i * (nz + 1); k <= nz; ++k, ++p) {
      y0_.t1_l0[p] = g.ex(i, 0, k);
      y0_.t1_l1[p] = g.ex(i, 1, k);
      y1_.t1_l0[p] = g.ex(i, ny, k);
      y1_.t1_l1[p] = g.ex(i, ny - 1, k);
    }
  }
  for (std::size_t k = 0, p = i * nz; k < nz; ++k, ++p) {
    y0_.t2_l0[p] = g.ez(i, 0, k);
    y0_.t2_l1[p] = g.ez(i, 1, k);
    y1_.t2_l0[p] = g.ez(i, ny, k);
    y1_.t2_l1[p] = g.ez(i, ny - 1, k);
  }
  // ---- z faces: Ex and Ey.
  if (i < nx) {
    for (std::size_t j = 0, p = i * (ny + 1); j <= ny; ++j, ++p) {
      z0_.t1_l0[p] = g.ex(i, j, 0);
      z0_.t1_l1[p] = g.ex(i, j, 1);
      z1_.t1_l0[p] = g.ex(i, j, nz);
      z1_.t1_l1[p] = g.ex(i, j, nz - 1);
    }
  }
  for (std::size_t j = 0, p = i * ny; j < ny; ++j, ++p) {
    z0_.t2_l0[p] = g.ey(i, j, 0);
    z0_.t2_l1[p] = g.ey(i, j, 1);
    z1_.t2_l0[p] = g.ey(i, j, nz);
    z1_.t2_l1[p] = g.ey(i, j, nz - 1);
  }
}

void MurBoundary::finishPlane(std::size_t i) {
  const std::size_t nx = g_->nx();
  // Planes 0 and 1 wait for the near x face, planes nx-1 and nx for the
  // far one (with nx = 2, plane 1 waits for both).
  if (i == 1) {
    applyXFace(false);
    for (std::size_t p = 0; p <= 1; ++p)
      if (p + 1 < nx) applyYZ(p);
  }
  if (i == nx) {
    applyXFace(true);
    applyYZ(nx - 1);
    applyYZ(nx);
  }
  if (i > 1 && i + 1 < nx) applyYZ(i);
}

void MurBoundary::applyXFace(bool far_end) {
  Grid3& g = *g_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const std::size_t b = far_end ? nx : 0;       // boundary plane
  const std::size_t n = far_end ? nx - 1 : 1;   // its neighbour
  const FaceStore& f = far_end ? x1_ : x0_;
  std::size_t p = 0;
  for (std::size_t j = 0; j < ny; ++j)
    for (std::size_t k = 0; k <= nz; ++k, ++p)
      g.ey(b, j, k) = f.t1_l1[p] + cx_ * (g.ey(n, j, k) - f.t1_l0[p]);
  p = 0;
  for (std::size_t j = 0; j <= ny; ++j)
    for (std::size_t k = 0; k < nz; ++k, ++p)
      g.ez(b, j, k) = f.t2_l1[p] + cx_ * (g.ez(n, j, k) - f.t2_l0[p]);
}

void MurBoundary::applyYZ(std::size_t i) {
  Grid3& g = *g_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  // y faces first: the z faces read the y faces' Ex results at j = 0, ny.
  if (i < nx) {
    for (std::size_t k = 0, p = i * (nz + 1); k <= nz; ++k, ++p) {
      g.ex(i, 0, k) = y0_.t1_l1[p] + cy_ * (g.ex(i, 1, k) - y0_.t1_l0[p]);
      g.ex(i, ny, k) = y1_.t1_l1[p] + cy_ * (g.ex(i, ny - 1, k) - y1_.t1_l0[p]);
    }
  }
  for (std::size_t k = 0, p = i * nz; k < nz; ++k, ++p) {
    g.ez(i, 0, k) = y0_.t2_l1[p] + cy_ * (g.ez(i, 1, k) - y0_.t2_l0[p]);
    g.ez(i, ny, k) = y1_.t2_l1[p] + cy_ * (g.ez(i, ny - 1, k) - y1_.t2_l0[p]);
  }
  // z faces.
  if (i < nx) {
    for (std::size_t j = 0, p = i * (ny + 1); j <= ny; ++j, ++p) {
      g.ex(i, j, 0) = z0_.t1_l1[p] + cz_ * (g.ex(i, j, 1) - z0_.t1_l0[p]);
      g.ex(i, j, nz) = z1_.t1_l1[p] + cz_ * (g.ex(i, j, nz - 1) - z1_.t1_l0[p]);
    }
  }
  for (std::size_t j = 0, p = i * ny; j < ny; ++j, ++p) {
    g.ey(i, j, 0) = z0_.t2_l1[p] + cz_ * (g.ey(i, j, 1) - z0_.t2_l0[p]);
    g.ey(i, j, nz) = z1_.t2_l1[p] + cz_ * (g.ey(i, j, nz - 1) - z1_.t2_l0[p]);
  }
}

}  // namespace fdtdmm
