// Provenance stamped into every BENCH_*.json: which commit, machine,
// compiler and build type produced the numbers, so a later run can tell a
// regression from a change of hardware.
#pragma once

#include "core/io.hpp"

namespace hhc::bench {

/// Writes the key "provenance" and an object with git_sha (the checkout's
/// HEAD, "-dirty" when tracked files differ, "unknown" outside a work
/// tree), nproc, cpu, compiler and build_type into the open JSON object.
void write_provenance(core::JsonWriter& json);

}  // namespace hhc::bench
