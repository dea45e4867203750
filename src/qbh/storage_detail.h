// Internals shared by the v1/v2 text parser (storage.cc) and the v3 binary
// format (storage_v3.cc): option name tables, checked option application,
// the inter-option validation Build() depends on, and the corruption
// counters. Not part of the public storage API.
#pragma once

#include <cstddef>
#include <string>

#include "obs/metrics.h"
#include "qbh/qbh_system.h"
#include "util/status.h"

namespace humdex {
namespace storage_detail {

// Sanity bounds on parsed options: a corrupt file must not be able to
// request a multi-gigabyte normal form or a NaN width and drive Build()
// into an abort or OOM.
inline constexpr std::size_t kMaxNormalLen = 1 << 20;
inline constexpr double kMaxSamplesPerBeat = 1e6;
inline constexpr std::size_t kMaxNextId = 1 << 24;  // bounds the tombstone vector

obs::Counter& CorruptionCounter();
obs::Counter& SalvagedCounter();

/// Status::Corruption that also bumps storage.corruption_detected.
Status Corruption(std::string msg);

const char* SchemeName(SchemeKind kind);
bool SchemeFromName(const std::string& name, SchemeKind* out);
const char* IndexName(IndexKind kind);
bool IndexFromName(const std::string& name, IndexKind* out);

/// Apply one `option <key> <value>` pair to `opt`. Exception-free: numeric
/// values go through the checked parsers and out-of-range values are
/// rejected here, before they can reach a HUMDEX_CHECK in QbhSystem.
Status ApplyOption(const std::string& key, const std::string& value,
                   QbhOptions* opt);

/// The inter-option constraints QbhSystem::Build() CHECKs: a corrupt file
/// must fail here with a Status, not abort inside a scheme constructor.
Status ValidateOptions(const QbhOptions& opt);

/// The v2 option header lines (normal_len .. samples_per_beat, no ids)
/// — also the payload of the v3 OPTIONS section, so both formats validate
/// configuration through the identical ApplyOption path.
std::string SerializeOptionLines(const QbhOptions& opt);

}  // namespace storage_detail
}  // namespace humdex
