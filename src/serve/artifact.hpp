// Versioned binary serialization of pipeline artifacts (.epim files).
//
// An artifact turns a CompiledModel or DeployedModel into a durable,
// process-independent file: network topology, epitome weights, assignment,
// per-layer precision plan, calibrated quantizer state and the full
// HardwareConfig/PipelineConfig round-trip through one container, so a model
// compiled (or calibrated) once can be served by any number of processes
// without paying Pipeline::compile()/deploy() again.
//
// Container layout (all integers little-endian):
//
//   [0..7]   magic "EPIMART\0"
//   [8..11]  schema version (u32, currently kSchemaVersion below)
//   [12..15] artifact kind (u32: 1 = compiled model, 2 = deployed model)
//   [16..19] section count (u32)
//   then per section:
//     tag      8 bytes, NUL-padded ("config\0\0", "network\0", ...)
//     size     u64 payload bytes
//     checksum u64 FNV-1a over the payload
//     payload  size bytes
//
// CompiledModel::save() / DeployedModel::save() write an artifact;
// Pipeline::load() / Pipeline::load_deployed() verify magic, version, kind
// and the section table up front. Truncation, foreign files, future
// versions and bit corruption are all rejected with distinct
// InvalidArgument messages (see kErr* below, pinned by
// tests/test_serve.cpp). Both loaders read the whole file in one sized read
// and verify every section's checksum before decoding a byte.
//
// Determinism contract: loading re-resolves the precision plan and
// re-programs the crossbars (non-ideality draws are re-seeded from the
// stored NonIdealityConfig::seed), so a loaded model is bit-identical to the
// one that was saved -- same estimator numbers, same logits, same clip
// counts. The property tests assert this for randomized configs.
#pragma once

#include <cstdint>
#include <string>

namespace epim {

class CompiledModel;
class DeployedModel;

namespace artifact {

/// Schema version the save() calls write; the loaders reject anything else
/// (the codec reads fields positionally, so older payloads cannot be decoded
/// either -- they fail with a clean version error, never a misparse).
/// History: v1 = first format; v2 = ServeConfig gained a latency-window
/// size and max_queue; v3 = ServeConfig gained workers (continuous-batching
/// worker count); v4 = ServeConfig gained max_workers/the DRR quantum/
/// reslice_bursts (SLA-aware scheduling core); v5 = ServeConfig dropped the
/// latency-window size (the latency digest is the interval histogram); v6 =
/// ServeConfig dropped the DRR quantum (one FIFO per priority class).
inline constexpr std::uint32_t kSchemaVersion = 6;

/// Artifact kinds stored in the header.
enum class Kind : std::uint32_t {
  kCompiledModel = 1,
  kDeployedModel = 2,
};

// Exact rejection messages (EPIM_CHECK prepends "invalid argument: " and
// appends the failing expression/location).
inline constexpr const char* kErrCannotOpen = "cannot open artifact";
inline constexpr const char* kErrNotFile =
    "artifact path is not a regular file";
inline constexpr const char* kErrTruncated = "truncated artifact";
inline constexpr const char* kErrBadMagic = "not an EPIM artifact (bad magic)";
inline constexpr const char* kErrBadVersion =
    "unsupported artifact schema version";
inline constexpr const char* kErrBadKind = "artifact kind mismatch";
inline constexpr const char* kErrChecksum =
    "artifact section checksum mismatch";

/// Header summary of an artifact on disk (cheap: reads only the 20-byte
/// header, never the payload).
struct Info {
  std::uint32_t version = 0;
  Kind kind = Kind::kCompiledModel;
};
Info probe(const std::string& path);

}  // namespace artifact

/// Private-access bridge between the artifact codec and the façade types
/// (declared a friend by CompiledModel/DeployedModel/PimNetworkRuntime).
class ArtifactCodec {
 public:
  static void save_compiled(const CompiledModel& model,
                            const std::string& path);
  static void save_deployed(const DeployedModel& model,
                            const std::string& path);
  static CompiledModel load_compiled(const std::string& path);
  static DeployedModel load_deployed(const std::string& path);
};

}  // namespace epim
