// serve::JsonValue and serve::parse_json: the repo's one JSON reader
// (support/json) under the serve namespace. src/ includes support/json.hpp
// directly; this alias stays for the benchmark harness, which names the
// serve spelling.
#pragma once

#include "support/json.hpp"

namespace tvnep::serve {

using tvnep::JsonValue;
using tvnep::parse_json;

}  // namespace tvnep::serve
