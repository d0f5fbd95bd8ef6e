// Checkpointing: the one on-disk container for trained model state.
//
// Training checkpoints (SaveCheckpoint/LoadCheckpoint) are a versioned,
// CRC-checked container of named binary sections. The crash-safe trainers
// use it to capture *all* training state (model + momentum parameters,
// optimizer moments, schedule position, RNG streams, negative queues,
// trainer progress) so a resumed run continues the interrupted one bitwise;
// SarnModel::SaveWeights writes the same container with only the variant
// tag and online parameters. Tensor lists are positional (WriteTensors /
// ReadTensorsInto, in Parameters() order) and shape-checked on restore.
// Layout:
//   magic   "SARNCK1\n"                      (8 bytes)
//   version u32                               (kCheckpointVersion)
//   size    u64                               (payload byte count)
//   payload u32 section count, then per section: string name (u64 length
//           + bytes), string body
//   crc     u32                               (CRC-32 of the payload)
// Writers publish atomically: the file is written to "<path>.tmp" and
// renamed over <path>, so a reader never observes a half-written checkpoint
// under POSIX rename semantics. Loaders verify magic, version, declared size
// and CRC before parsing, and report each failure mode as a distinct
// CheckpointError so corrupt files are skipped with a precise diagnostic
// instead of crashing or half-loading.

#ifndef SARN_NN_SERIALIZATION_H_
#define SARN_NN_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "tensor/tensor.h"

namespace sarn::nn {

inline constexpr uint32_t kCheckpointVersion = 1;

/// Why a checkpoint failed to save or load. Each corruption mode maps to its
/// own code so callers (and tests) can tell a torn file from a bit flip from
/// an architecture mismatch.
enum class CheckpointError {
  kOk = 0,
  kIoError,        // Cannot open/read/write/rename the file.
  kBadMagic,       // Not a checkpoint file.
  kBadVersion,     // A checkpoint, but a version this build cannot read.
  kTruncated,      // File shorter than the header's declared payload size.
  kCrcMismatch,    // Payload bytes corrupted (e.g. a flipped bit).
  kMalformed,      // CRC passed but the section structure does not parse.
  kShapeMismatch,  // Tensor payload does not match the target architecture.
};

const char* CheckpointErrorName(CheckpointError error);

struct CheckpointStatus {
  CheckpointError error = CheckpointError::kOk;
  std::string message;

  bool ok() const { return error == CheckpointError::kOk; }
  static CheckpointStatus Ok() { return {}; }
  static CheckpointStatus Fail(CheckpointError error, std::string message) {
    return {error, std::move(message)};
  }
};

/// An ordered set of named binary sections; each subsystem serialises itself
/// into one section with a ByteWriter.
struct TrainingCheckpoint {
  std::vector<std::pair<std::string, std::string>> sections;

  void SetSection(const std::string& name, std::string body);
  /// nullptr when absent.
  const std::string* FindSection(const std::string& name) const;
};

/// Atomically writes the checkpoint ("<path>.tmp" then rename).
CheckpointStatus SaveCheckpoint(const std::string& path, const TrainingCheckpoint& ckpt);

/// Reads and fully validates (magic, version, size, CRC) a checkpoint.
/// `*ckpt` is only modified on success.
CheckpointStatus LoadCheckpoint(const std::string& path, TrainingCheckpoint* ckpt);

/// Serialises a tensor list (shapes + values) into `out`; the counterpart of
/// ReadTensorsInto.
void WriteTensors(ByteWriter& out, const std::vector<tensor::Tensor>& tensors);

/// Two-phase restore of a tensor list written by WriteTensors: every tensor
/// is parsed and shape-checked against `tensors` before ANY value is
/// written, so a mismatch never leaves the targets half-loaded.
CheckpointStatus ReadTensorsInto(ByteReader& in, const std::vector<tensor::Tensor>& tensors);

/// Parse-only half of ReadTensorsInto: validates count and shapes against
/// `like` and fills `staged` with one value buffer per tensor, without
/// touching `like`. Lets a caller stage several tensor groups and commit
/// them together (whole-model atomic resume).
CheckpointStatus ParseTensors(ByteReader& in, const std::vector<tensor::Tensor>& like,
                              std::vector<std::vector<float>>* staged);

// --- Checkpoint directories --------------------------------------------------
// Trainers keep rolling checkpoints "ckpt_<epoch>.sarnckpt" in a directory;
// these helpers implement the naming, newest-first discovery and keep-last-K
// rotation shared by SarnModel and the baselines.

/// "ckpt_000042.sarnckpt" for epoch 42 (zero-padded so names sort).
std::string CheckpointFileName(int epoch);

/// All checkpoint files in `dir` as (epoch, full path), newest epoch first.
/// Missing or unreadable directories yield an empty list.
std::vector<std::pair<int, std::string>> ListCheckpoints(const std::string& dir);

/// Deletes all but the `keep_last` newest checkpoint files in `dir`.
void PruneCheckpoints(const std::string& dir, int keep_last);

}  // namespace sarn::nn

#endif  // SARN_NN_SERIALIZATION_H_
