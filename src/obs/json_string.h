// JSON string rendering shared by the obs renderings (metrics snapshots and
// trace logs).
#pragma once

#include <string>
#include <string_view>

namespace sledzig::obs {

/// Appends `s` to `out` as a quoted JSON string.  `"` and `\` are escaped,
/// and so is every control character below 0x20, so any name renders as
/// valid JSON.
void append_json_string(std::string& out, std::string_view s);

}  // namespace sledzig::obs
