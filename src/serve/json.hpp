// The serve protocol's view of the repo's one JSON reader (support/json):
// serve::JsonValue and serve::parse_json name the shared implementation.
#pragma once

#include "support/json.hpp"

namespace tvnep::serve {

using tvnep::JsonValue;
using tvnep::parse_json;

}  // namespace tvnep::serve
