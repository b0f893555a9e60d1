#pragma once
/// \file serialize.hpp
/// \brief Persist and reload characterizations.
///
/// A characterization pass is the expensive part of the workflow (it runs
/// baseline executions across every (c, f) plus the network and power
/// micro-benchmarks). On a real testbed it takes hours, so HEPEX can save
/// the result to a JSON file and reload it in later sessions —
/// model evaluation then needs no cluster access at all.
///
/// The current format is JSON (`"schema": "hepex-characterization/2"`)
/// written through `util::json`: diff-able, hand-editable (so a user can,
/// e.g., paste counters measured with perf on real hardware) and exact —
/// numbers use shortest-round-trip formatting, so save→load→save is
/// byte-identical. The embedded machine description reuses the scenario
/// platform schema (`cfg::machine_to_json`), so it exists exactly once.

#include <iosfwd>
#include <string>

#include "model/characterization.hpp"

namespace hepex::model {

/// Serialize to the HEPEX characterization format (JSON, schema v2).
void save_characterization(const Characterization& ch, std::ostream& os);

/// Convenience: write to `path`; throws std::runtime_error on I/O error.
void save_characterization_file(const Characterization& ch,
                                const std::string& path);

/// Parse a characterization previously written by save_characterization
/// (the JSON v2 schema). Throws std::invalid_argument on malformed input,
/// with a line and column (malformed JSON) or a field path.
Characterization load_characterization(std::istream& is);

/// Convenience: read from `path`; throws std::runtime_error when the file
/// cannot be opened.
Characterization load_characterization_file(const std::string& path);

}  // namespace hepex::model
