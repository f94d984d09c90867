#ifndef SBON_ENGINE_REGISTRY_H_
#define SBON_ENGINE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/optimizer.h"
#include "placement/virtual_placement.h"

namespace sbon::engine {

/// Read-only view of the built-in query-optimizer strategies, selected by
/// name so benches, examples and config files need no concrete headers.
/// The table is fixed (see registry.cc): "integrated" (paper Sec. 3.3),
/// "multi-query" (Sec. 3.4), and "two-step" (Sec. 2.3), which is the
/// integrated optimizer with one candidate plan (`enumeration.top_k = 1`).
class OptimizerRegistry {
 public:
  static const OptimizerRegistry& Global();

  /// A new optimizer `name` over `config` and `placer` (non-null).
  StatusOr<std::unique_ptr<core::Optimizer>> Create(
      const std::string& name, const core::OptimizerConfig& config,
      std::shared_ptr<const placement::VirtualPlacer> placer) const;

  bool Has(const std::string& name) const;
  /// Built-in names, sorted — for --help output and error messages.
  std::vector<std::string> Names() const;
};

/// Read-only view of the built-in virtual-placement strategies
/// ("centroid", "gradient", "relaxation"). Each Create() returns a fresh
/// instance. A placer owns the scratch its `Place` calls reuse, so calls on
/// one instance must not overlap: give each optimizer its own instance, as
/// `StreamEngine` does.
class PlacerRegistry {
 public:
  static const PlacerRegistry& Global();

  StatusOr<std::shared_ptr<const placement::VirtualPlacer>> Create(
      const std::string& name) const;

  bool Has(const std::string& name) const;
  std::vector<std::string> Names() const;
};

}  // namespace sbon::engine

#endif  // SBON_ENGINE_REGISTRY_H_
