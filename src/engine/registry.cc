#include "engine/registry.h"

#include <memory>

#include "core/integrated.h"
#include "core/multi_query.h"
#include "placement/relaxation.h"

namespace sbon::engine {
namespace {

struct OptimizerEntry {
  const char* name;
  std::unique_ptr<core::Optimizer> (*create)(const OptimizerSpec&);
};

struct PlacerEntry {
  const char* name;
  std::shared_ptr<const placement::VirtualPlacer> (*create)();
};

// The built-in strategies, each table sorted by name.
constexpr OptimizerEntry kOptimizers[] = {
    {"integrated",
     [](const OptimizerSpec& spec) -> std::unique_ptr<core::Optimizer> {
       return std::make_unique<core::IntegratedOptimizer>(spec.config,
                                                          spec.placer);
     }},
    {"multi-query",
     [](const OptimizerSpec& spec) -> std::unique_ptr<core::Optimizer> {
       return std::make_unique<core::MultiQueryOptimizer>(
           spec.config, spec.placer, spec.multi_query);
     }},
    // Network-blind plan generation, then placement of that one plan: the
    // integrated optimizer over the single minimum-data-volume plan.
    {"two-step",
     [](const OptimizerSpec& spec) -> std::unique_ptr<core::Optimizer> {
       core::OptimizerConfig config = spec.config;
       config.enumeration.top_k = 1;
       return std::make_unique<core::IntegratedOptimizer>(config,
                                                          spec.placer);
     }},
};

constexpr PlacerEntry kPlacers[] = {
    {"centroid",
     []() -> std::shared_ptr<const placement::VirtualPlacer> {
       return std::make_shared<const placement::CentroidPlacer>();
     }},
    {"gradient",
     []() -> std::shared_ptr<const placement::VirtualPlacer> {
       return std::make_shared<const placement::GradientPlacer>();
     }},
    {"relaxation",
     []() -> std::shared_ptr<const placement::VirtualPlacer> {
       return std::make_shared<const placement::RelaxationPlacer>();
     }},
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
    const std::string& name, const OptimizerSpec& spec) const {
  const OptimizerEntry* entry = Find(kOptimizers, name);
  if (entry == nullptr) {
    return Status::NotFound(UnknownNameMessage("optimizer", name, Names()));
  }
  if (spec.placer == nullptr) {
    return Status::InvalidArgument("optimizer spec has no placer");
  }
  return entry->create(spec);
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

StatusOr<std::shared_ptr<const placement::VirtualPlacer>>
PlacerRegistry::Create(const std::string& name) const {
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
