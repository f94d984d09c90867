#include "net/dynamics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sbon::net {

LoadModel::LoadModel(size_t n, const Params& params, Rng* rng)
    : params_(params), load_(n, 0.0), hotspot_(n, false) {
  for (size_t i = 0; i < n; ++i) {
    hotspot_[i] = rng->Bernoulli(params_.hotspot_frac);
    const double mean = hotspot_[i] ? params_.hotspot_mean : params_.mean;
    load_[i] = std::clamp(rng->Normal(mean, params_.sigma * 0.5), 0.0, 1.0);
  }
}

void LoadModel::Step(double dt, Rng* rng) {
  const double sqdt = std::sqrt(std::max(dt, 0.0));
  for (size_t i = 0; i < load_.size(); ++i) {
    const double mean = hotspot_[i] ? params_.hotspot_mean : params_.mean;
    const double drift = params_.theta * (mean - load_[i]) * dt;
    const double shock = params_.sigma * sqdt * rng->Normal();
    load_[i] = std::clamp(load_[i] + drift + shock, 0.0, 1.0);
  }
}

void LoadModel::SetLoad(NodeId n, double load) {
  assert(n < load_.size());
  load_[n] = std::clamp(load, 0.0, 1.0);
}

}  // namespace sbon::net
