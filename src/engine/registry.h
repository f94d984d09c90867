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
/// name from benches, examples and config files. Each name is a preset
/// over the one `core::Optimizer`, and the table is fixed (see
/// registry.cc): "integrated" (paper Sec. 3.3) pins `reuse_radius` to 0;
/// "two-step" (Sec. 2.3) also pins `enumeration.top_k` to 1; "multi-query"
/// (Sec. 3.4) uses the config as given.
class OptimizerRegistry {
 public:
  static const OptimizerRegistry& Global();

  /// A new optimizer `name` over `config`, with the name's preset applied,
  /// and `placer` (non-null).
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
