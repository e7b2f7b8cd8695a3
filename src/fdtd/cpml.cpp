#include "fdtd/cpml.h"

#include <cmath>
#include <stdexcept>

namespace fdtdmm {

using namespace constants;

CpmlBoundary::CpmlBoundary(Grid3* grid, const CpmlOptions& opt)
    : g_(grid), t_(opt.thickness), opt_(opt) {
  if (g_ == nullptr) throw std::invalid_argument("CpmlBoundary: null grid");
  if (t_ < 2) throw std::invalid_argument("CpmlBoundary: thickness must be >= 2");
  if (g_->nx() < 2 * t_ + 4 || g_->ny() < 2 * t_ + 4 || g_->nz() < 2 * t_ + 4)
    throw std::invalid_argument("CpmlBoundary: grid too small for PML thickness");

  ax_ = buildAxis(g_->nx() + 1, g_->dx());
  ay_ = buildAxis(g_->ny() + 1, g_->dy());
  az_ = buildAxis(g_->nz() + 1, g_->dz());

  const std::size_t n = (g_->nx() + 1) * (g_->ny() + 1) * (g_->nz() + 1);
  for (auto* p : {&psi_exy_, &psi_exz_, &psi_eyz_, &psi_eyx_, &psi_ezx_, &psi_ezy_,
                  &psi_hxy_, &psi_hxz_, &psi_hyz_, &psi_hyx_, &psi_hzx_, &psi_hzy_}) {
    p->assign(n, 0.0);
  }
}

CpmlBoundary::AxisCoeffs CpmlBoundary::buildAxis(std::size_t n_nodes, double d) const {
  AxisCoeffs c;
  c.b_full.assign(n_nodes, 0.0);
  c.c_full.assign(n_nodes, 0.0);
  c.b_half.assign(n_nodes, 0.0);
  c.c_half.assign(n_nodes, 0.0);

  const double sigma_max = opt_.sigma_factor * 0.8 *
                           (opt_.grading_order + 1.0) / (kEta0 * d);
  const double dt = g_->dt();
  const auto n_last = static_cast<double>(n_nodes - 1);

  auto fill = [&](double pos, double& b, double& cc) {
    // Depth into the PML measured from the inner interface, in [0, 1].
    double depth = 0.0;
    const double tt = static_cast<double>(t_);
    if (pos < tt) {
      depth = (tt - pos) / tt;
    } else if (pos > n_last - tt) {
      depth = (pos - (n_last - tt)) / tt;
    } else {
      b = 0.0;
      cc = 0.0;
      return;
    }
    const double sigma = sigma_max * std::pow(depth, opt_.grading_order);
    const double a = opt_.a_max * (1.0 - depth);  // CFS alpha, max at inner edge
    b = std::exp(-(sigma / kEps0 + a / kEps0) * dt);
    const double denom = sigma + a;
    cc = denom > 0.0 ? sigma / denom * (b - 1.0) : 0.0;
  };

  for (std::size_t k = 0; k < n_nodes; ++k) {
    fill(static_cast<double>(k), c.b_full[k], c.c_full[k]);
    fill(static_cast<double>(k) + 0.5, c.b_half[k], c.c_half[k]);
  }
  return c;
}

void CpmlBoundary::updateEPlane(std::size_t i) {
  Grid3& g = *g_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const double idx_ = 1.0 / g.dx(), idy = 1.0 / g.dy(), idz = 1.0 / g.dz();
  const std::vector<double>& cb_ex = g.cbEx();
  const std::vector<double>& cb_ey = g.cbEy();
  const std::vector<double>& cb_ez = g.cbEz();
  if (i >= nx) return;

  // Ex: corrections from dHz/dy (y-PML) and dHy/dz (z-PML).
  for (std::size_t j = 1; j < ny; ++j)
    for (std::size_t k = 1; k < nz; ++k) {
      const std::size_t id = g.idx(i, j, k);
      const double by = ay_.b_full[j], cy = ay_.c_full[j];
      const double bz = az_.b_full[k], cz = az_.c_full[k];
      if (cy == 0.0 && cz == 0.0 && psi_exy_[id] == 0.0 && psi_exz_[id] == 0.0)
        continue;
      const double dhzdy = (g.hz(i, j, k) - g.hz(i, j - 1, k)) * idy;
      const double dhydz = (g.hy(i, j, k) - g.hy(i, j, k - 1)) * idz;
      psi_exy_[id] = by * psi_exy_[id] + cy * dhzdy;
      psi_exz_[id] = bz * psi_exz_[id] + cz * dhydz;
      g.exData()[id] += cb_ex[id] * (psi_exy_[id] - psi_exz_[id]);
    }
  if (i == 0) return;
  const double bx = ax_.b_full[i], cx = ax_.c_full[i];
  // Ey: dHx/dz (z) and dHz/dx (x).
  for (std::size_t j = 0; j < ny; ++j)
    for (std::size_t k = 1; k < nz; ++k) {
      const std::size_t id = g.idx(i, j, k);
      const double bz = az_.b_full[k], cz = az_.c_full[k];
      if (cz == 0.0 && cx == 0.0 && psi_eyz_[id] == 0.0 && psi_eyx_[id] == 0.0)
        continue;
      const double dhxdz = (g.hx(i, j, k) - g.hx(i, j, k - 1)) * idz;
      const double dhzdx = (g.hz(i, j, k) - g.hz(i - 1, j, k)) * idx_;
      psi_eyz_[id] = bz * psi_eyz_[id] + cz * dhxdz;
      psi_eyx_[id] = bx * psi_eyx_[id] + cx * dhzdx;
      g.eyData()[id] += cb_ey[id] * (psi_eyz_[id] - psi_eyx_[id]);
    }
  // Ez: dHy/dx (x) and dHx/dy (y).
  for (std::size_t j = 1; j < ny; ++j)
    for (std::size_t k = 0; k < nz; ++k) {
      const std::size_t id = g.idx(i, j, k);
      const double by = ay_.b_full[j], cy = ay_.c_full[j];
      if (cx == 0.0 && cy == 0.0 && psi_ezx_[id] == 0.0 && psi_ezy_[id] == 0.0)
        continue;
      const double dhydx = (g.hy(i, j, k) - g.hy(i - 1, j, k)) * idx_;
      const double dhxdy = (g.hx(i, j, k) - g.hx(i, j - 1, k)) * idy;
      psi_ezx_[id] = bx * psi_ezx_[id] + cx * dhydx;
      psi_ezy_[id] = by * psi_ezy_[id] + cy * dhxdy;
      g.ezData()[id] += cb_ez[id] * (psi_ezx_[id] - psi_ezy_[id]);
    }
}

void CpmlBoundary::updateHPlane(std::size_t i) {
  Grid3& g = *g_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const double idx_ = 1.0 / g.dx(), idy = 1.0 / g.dy(), idz = 1.0 / g.dz();
  const double ch = g.dt() / kMu0;

  // Hx: dEz/dy (y half) and dEy/dz (z half).
  for (std::size_t j = 0; j < ny; ++j)
    for (std::size_t k = 0; k < nz; ++k) {
      const double by = ay_.b_half[j], cy = ay_.c_half[j];
      const double bz = az_.b_half[k], cz = az_.c_half[k];
      const std::size_t id = g.idx(i, j, k);
      if (cy == 0.0 && cz == 0.0 && psi_hxy_[id] == 0.0 && psi_hxz_[id] == 0.0)
        continue;
      const double dezdy = (g.ez(i, j + 1, k) - g.ez(i, j, k)) * idy;
      const double deydz = (g.ey(i, j, k + 1) - g.ey(i, j, k)) * idz;
      psi_hxy_[id] = by * psi_hxy_[id] + cy * dezdy;
      psi_hxz_[id] = bz * psi_hxz_[id] + cz * deydz;
      g.hxData()[id] -= ch * (psi_hxy_[id] - psi_hxz_[id]);
    }
  if (i >= nx) return;
  const double bx = ax_.b_half[i], cx = ax_.c_half[i];
  // Hy: dEx/dz (z half) and dEz/dx (x half).
  for (std::size_t j = 0; j <= ny; ++j)
    for (std::size_t k = 0; k < nz; ++k) {
      const double bz = az_.b_half[k], cz = az_.c_half[k];
      const std::size_t id = g.idx(i, j, k);
      if (cz == 0.0 && cx == 0.0 && psi_hyz_[id] == 0.0 && psi_hyx_[id] == 0.0)
        continue;
      const double dexdz = (g.ex(i, j, k + 1) - g.ex(i, j, k)) * idz;
      const double dezdx = (g.ez(i + 1, j, k) - g.ez(i, j, k)) * idx_;
      psi_hyz_[id] = bz * psi_hyz_[id] + cz * dexdz;
      psi_hyx_[id] = bx * psi_hyx_[id] + cx * dezdx;
      g.hyData()[id] -= ch * (psi_hyz_[id] - psi_hyx_[id]);
    }
  // Hz: dEy/dx (x half) and dEx/dy (y half).
  for (std::size_t j = 0; j < ny; ++j)
    for (std::size_t k = 0; k <= nz; ++k) {
      const double by = ay_.b_half[j], cy = ay_.c_half[j];
      const std::size_t id = g.idx(i, j, k);
      if (cx == 0.0 && cy == 0.0 && psi_hzx_[id] == 0.0 && psi_hzy_[id] == 0.0)
        continue;
      const double deydx = (g.ey(i + 1, j, k) - g.ey(i, j, k)) * idx_;
      const double dexdy = (g.ex(i, j + 1, k) - g.ex(i, j, k)) * idy;
      psi_hzx_[id] = bx * psi_hzx_[id] + cx * deydx;
      psi_hzy_[id] = by * psi_hzy_[id] + cy * dexdy;
      g.hzData()[id] -= ch * (psi_hzx_[id] - psi_hzy_[id]);
    }
}

void CpmlBoundary::applyPecBackingPlane(std::size_t i) {
  Grid3& g = *g_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  if (i == 0 || i == nx) {
    for (std::size_t j = 0; j <= ny; ++j)
      for (std::size_t k = 0; k <= nz; ++k) {
        if (j < ny) g.ey(i, j, k) = 0.0;
        if (k < nz) g.ez(i, j, k) = 0.0;
      }
  }
  for (std::size_t k = 0; k <= nz; ++k) {
    if (i < nx) {
      g.ex(i, 0, k) = 0.0;
      g.ex(i, ny, k) = 0.0;
    }
    if (k < nz) {
      g.ez(i, 0, k) = 0.0;
      g.ez(i, ny, k) = 0.0;
    }
  }
  for (std::size_t j = 0; j <= ny; ++j) {
    if (i < nx) {
      g.ex(i, j, 0) = 0.0;
      g.ex(i, j, nz) = 0.0;
    }
    if (j < ny) {
      g.ey(i, j, 0) = 0.0;
      g.ey(i, j, nz) = 0.0;
    }
  }
}

}  // namespace fdtdmm
