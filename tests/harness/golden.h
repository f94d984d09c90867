#ifndef SBON_TESTS_HARNESS_GOLDEN_H_
#define SBON_TESTS_HARNESS_GOLDEN_H_

#include <string>

#include "overlay/circuit.h"
#include "overlay/sbon.h"

namespace sbon::test {

/// Canonical, line-oriented rendering of a placed circuit: one line per
/// vertex (`v<i> op=<i> host=<n> pinned/reused flags`) and one per
/// edge (`e <from>-><to> rate=<bytes/s> [virtual]`). Floating-point values
/// are rounded to 6 significant digits so the fingerprint is stable across
/// compilers while still pinning real behavior.
std::string CircuitFingerprint(const overlay::Circuit& circuit);

/// Canonical rendering of overlay-wide placement state: node/circuit/service
/// counts, total network usage, max load, followed by every circuit's
/// fingerprint in id order.
std::string OverlayFingerprint(const overlay::Sbon& sbon);

/// Compares `actual` against the committed golden file
/// `tests/golden/<name>.golden`. On mismatch returns a unified description
/// of the first differing line; on match returns an empty string.
///
/// Set the environment variable `SBON_UPDATE_GOLDEN=1` to (re)write the
/// golden file instead of comparing — then commit the result.
///
/// Typical use:
///   EXPECT_EQ("", test::CheckGolden("e2e_two_step", fingerprint));
std::string CheckGolden(const std::string& name, const std::string& actual);

/// Absolute path of the golden file for `name` (under the source tree).
std::string GoldenPath(const std::string& name);

}  // namespace sbon::test

#endif  // SBON_TESTS_HARNESS_GOLDEN_H_
