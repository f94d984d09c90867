#include "engine/registry.h"

#include <memory>
#include <utility>

#include "placement/relaxation.h"

namespace sbon::engine {
namespace {

using PlacerPtr = std::shared_ptr<const placement::VirtualPlacer>;

// A built-in strategy: a preset over the caller's configuration.
struct OptimizerEntry {
  const char* name;
  bool reuse;     // keeps the configured reuse_radius; else pins it to 0
  bool one_plan;  // pins enumeration.top_k to 1
};

struct PlacerEntry {
  const char* name;
  PlacerPtr (*create)();
};

// The built-in strategies, each table sorted by name: integrated plan and
// placement (paper Sec. 3.3), multi-query reuse (Sec. 3.4), and two-step
// (Sec. 2.3), network-blind plan generation and then placement of that one
// minimum-data-volume plan.
constexpr OptimizerEntry kOptimizers[] = {
    {"integrated", /*reuse=*/false, /*one_plan=*/false},
    {"multi-query", /*reuse=*/true, /*one_plan=*/false},
    {"two-step", /*reuse=*/false, /*one_plan=*/true},
};

template <typename T>
PlacerPtr MakePlacer() {
  return std::make_shared<const T>();
}

constexpr PlacerEntry kPlacers[] = {
    {"centroid", MakePlacer<placement::CentroidPlacer>},
    {"gradient", MakePlacer<placement::GradientPlacer>},
    {"relaxation", MakePlacer<placement::RelaxationPlacer>},
};

template <typename Entry, size_t N>
const Entry* Find(const Entry (&table)[N], const std::string& name) {
  for (const Entry& entry : table) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

template <typename Entry, size_t N>
std::vector<std::string> NamesOf(const Entry (&table)[N]) {
  std::vector<std::string> names;
  names.reserve(N);
  for (const Entry& entry : table) names.emplace_back(entry.name);
  return names;
}

std::string UnknownNameMessage(const char* what, const std::string& name,
                               const std::vector<std::string>& known) {
  std::string msg = "unknown ";
  msg += what;
  msg += " '" + name + "'; built in: ";
  for (size_t i = 0; i < known.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += known[i];
  }
  return msg;
}

}  // namespace

const OptimizerRegistry& OptimizerRegistry::Global() {
  static const OptimizerRegistry registry;
  return registry;
}

StatusOr<std::unique_ptr<core::Optimizer>> OptimizerRegistry::Create(
    const std::string& name, const core::OptimizerConfig& config,
    PlacerPtr placer) const {
  const OptimizerEntry* entry = Find(kOptimizers, name);
  if (entry == nullptr) {
    return Status::NotFound(UnknownNameMessage("optimizer", name, Names()));
  }
  if (placer == nullptr) {
    return Status::InvalidArgument("optimizer has no placer");
  }
  core::OptimizerConfig preset = config;
  if (!entry->reuse) preset.reuse_radius = 0.0;
  if (entry->one_plan) preset.enumeration.top_k = 1;
  return std::make_unique<core::Optimizer>(std::move(preset),
                                           std::move(placer));
}

bool OptimizerRegistry::Has(const std::string& name) const {
  return Find(kOptimizers, name) != nullptr;
}

std::vector<std::string> OptimizerRegistry::Names() const {
  return NamesOf(kOptimizers);
}

const PlacerRegistry& PlacerRegistry::Global() {
  static const PlacerRegistry registry;
  return registry;
}

StatusOr<PlacerPtr> PlacerRegistry::Create(const std::string& name) const {
  const PlacerEntry* entry = Find(kPlacers, name);
  if (entry == nullptr) {
    return Status::NotFound(UnknownNameMessage("placer", name, Names()));
  }
  return entry->create();
}

bool PlacerRegistry::Has(const std::string& name) const {
  return Find(kPlacers, name) != nullptr;
}

std::vector<std::string> PlacerRegistry::Names() const {
  return NamesOf(kPlacers);
}

}  // namespace sbon::engine
