#include "engine/registry.h"

#include <memory>
#include <utility>

#include "core/integrated.h"
#include "core/multi_query.h"
#include "placement/relaxation.h"

namespace sbon::engine {
namespace {

using PlacerPtr = std::shared_ptr<const placement::VirtualPlacer>;

struct OptimizerEntry {
  const char* name;
  std::unique_ptr<core::Optimizer> (*create)(const core::OptimizerConfig&,
                                             PlacerPtr);
};

struct PlacerEntry {
  const char* name;
  PlacerPtr (*create)();
};

template <typename T>
std::unique_ptr<core::Optimizer> Make(const core::OptimizerConfig& config,
                                      PlacerPtr placer) {
  return std::make_unique<T>(config, std::move(placer));
}

// The built-in strategies, each table sorted by name.
constexpr OptimizerEntry kOptimizers[] = {
    {"integrated", Make<core::IntegratedOptimizer>},
    {"multi-query", Make<core::MultiQueryOptimizer>},
    // Network-blind plan generation, then placement of that one plan: the
    // integrated optimizer over the single minimum-data-volume plan.
    {"two-step",
     [](const core::OptimizerConfig& config,
        PlacerPtr placer) -> std::unique_ptr<core::Optimizer> {
       core::OptimizerConfig one_plan = config;
       one_plan.enumeration.top_k = 1;
       return Make<core::IntegratedOptimizer>(one_plan, std::move(placer));
     }},
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
  return entry->create(config, std::move(placer));
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
