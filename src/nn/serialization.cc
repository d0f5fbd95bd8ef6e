#include "nn/serialization.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace sarn::nn {
namespace {

constexpr char kCheckpointMagic[] = "SARNCK1\n";
constexpr size_t kCheckpointMagicLen = sizeof(kCheckpointMagic) - 1;
constexpr char kCheckpointSuffix[] = ".sarnckpt";
constexpr char kCheckpointPrefix[] = "ckpt_";

}  // namespace

// --- Training checkpoints ----------------------------------------------------

const char* CheckpointErrorName(CheckpointError error) {
  switch (error) {
    case CheckpointError::kOk: return "ok";
    case CheckpointError::kIoError: return "io-error";
    case CheckpointError::kBadMagic: return "bad-magic";
    case CheckpointError::kBadVersion: return "bad-version";
    case CheckpointError::kTruncated: return "truncated";
    case CheckpointError::kCrcMismatch: return "crc-mismatch";
    case CheckpointError::kMalformed: return "malformed";
    case CheckpointError::kShapeMismatch: return "shape-mismatch";
  }
  return "unknown";
}

void TrainingCheckpoint::SetSection(const std::string& name, std::string body) {
  for (auto& [existing, value] : sections) {
    if (existing == name) {
      value = std::move(body);
      return;
    }
  }
  sections.emplace_back(name, std::move(body));
}

const std::string* TrainingCheckpoint::FindSection(const std::string& name) const {
  for (const auto& [existing, value] : sections) {
    if (existing == name) return &value;
  }
  return nullptr;
}

CheckpointStatus SaveCheckpoint(const std::string& path, const TrainingCheckpoint& ckpt) {
  ByteWriter payload;
  payload.PutU32(static_cast<uint32_t>(ckpt.sections.size()));
  for (const auto& [name, body] : ckpt.sections) {
    payload.PutString(name);
    payload.PutString(body);
  }
  const std::string& bytes = payload.buffer();
  uint32_t crc = Crc32(bytes.data(), bytes.size());

  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return CheckpointStatus::Fail(CheckpointError::kIoError,
                                    "cannot open " + tmp + " for writing");
    }
    out.write(kCheckpointMagic, static_cast<std::streamsize>(kCheckpointMagicLen));
    uint32_t version = kCheckpointVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    uint64_t size = bytes.size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.flush();
    if (!out.good()) {
      return CheckpointStatus::Fail(CheckpointError::kIoError, "short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return CheckpointStatus::Fail(CheckpointError::kIoError,
                                  "cannot rename " + tmp + " to " + path);
  }
  return CheckpointStatus::Ok();
}

CheckpointStatus LoadCheckpoint(const std::string& path, TrainingCheckpoint* ckpt) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return CheckpointStatus::Fail(CheckpointError::kIoError, "cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return CheckpointStatus::Fail(CheckpointError::kIoError, "cannot read " + path);
  }
  std::string file = std::move(buffer).str();

  ByteReader header(file);
  char magic[kCheckpointMagicLen];
  if (!header.GetBytes(magic, kCheckpointMagicLen) ||
      std::memcmp(magic, kCheckpointMagic, kCheckpointMagicLen) != 0) {
    return CheckpointStatus::Fail(CheckpointError::kBadMagic,
                                  path + " is not a SARN training checkpoint");
  }
  uint32_t version = 0;
  if (!header.GetU32(&version)) {
    return CheckpointStatus::Fail(CheckpointError::kTruncated,
                                  path + " ends inside the header");
  }
  if (version != kCheckpointVersion) {
    return CheckpointStatus::Fail(
        CheckpointError::kBadVersion,
        path + " has version " + std::to_string(version) + ", this build reads " +
            std::to_string(kCheckpointVersion));
  }
  uint64_t declared = 0;
  if (!header.GetU64(&declared) || header.remaining() < declared + sizeof(uint32_t)) {
    return CheckpointStatus::Fail(
        CheckpointError::kTruncated,
        path + " is truncated (declared payload " + std::to_string(declared) +
            " bytes, " + std::to_string(header.remaining()) + " available)");
  }
  size_t payload_offset = kCheckpointMagicLen + sizeof(uint32_t) + sizeof(uint64_t);
  std::string_view payload(file.data() + payload_offset, static_cast<size_t>(declared));
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, file.data() + payload_offset + declared, sizeof(stored_crc));
  uint32_t actual_crc = Crc32(payload.data(), payload.size());
  if (stored_crc != actual_crc) {
    return CheckpointStatus::Fail(CheckpointError::kCrcMismatch,
                                  path + " payload CRC mismatch (file corrupt)");
  }

  ByteReader body(payload);
  uint32_t count = 0;
  if (!body.GetU32(&count)) {
    return CheckpointStatus::Fail(CheckpointError::kMalformed,
                                  path + ": cannot read section count");
  }
  TrainingCheckpoint parsed;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name, value;
    if (!body.GetString(&name) || !body.GetString(&value)) {
      return CheckpointStatus::Fail(CheckpointError::kMalformed,
                                    path + ": section " + std::to_string(i) +
                                        " does not parse");
    }
    parsed.sections.emplace_back(std::move(name), std::move(value));
  }
  *ckpt = std::move(parsed);
  return CheckpointStatus::Ok();
}

void WriteTensors(ByteWriter& out, const std::vector<tensor::Tensor>& tensors) {
  out.PutU64(tensors.size());
  for (const tensor::Tensor& t : tensors) {
    out.PutI64(t.rank());
    for (int64_t d : t.shape()) out.PutI64(d);
    out.PutFloats(t.data().data(), t.data().size());
  }
}

CheckpointStatus ReadTensorsInto(ByteReader& in,
                                 const std::vector<tensor::Tensor>& tensors) {
  std::vector<std::vector<float>> staged;
  CheckpointStatus status = ParseTensors(in, tensors, &staged);
  if (!status.ok()) return status;
  for (size_t i = 0; i < tensors.size(); ++i) {
    const_cast<tensor::Tensor&>(tensors[i]).mutable_data() = std::move(staged[i]);
  }
  return CheckpointStatus::Ok();
}

CheckpointStatus ParseTensors(ByteReader& in, const std::vector<tensor::Tensor>& like,
                              std::vector<std::vector<float>>* out_staged) {
  uint64_t count = 0;
  if (!in.GetU64(&count)) {
    return CheckpointStatus::Fail(CheckpointError::kMalformed,
                                  "tensor section: cannot read count");
  }
  if (count != like.size()) {
    return CheckpointStatus::Fail(
        CheckpointError::kShapeMismatch,
        "tensor section has " + std::to_string(count) + " tensors, expected " +
            std::to_string(like.size()));
  }
  std::vector<std::vector<float>> staged(like.size());
  for (size_t i = 0; i < like.size(); ++i) {
    const tensor::Tensor& t = like[i];
    int64_t rank = 0;
    if (!in.GetI64(&rank)) {
      return CheckpointStatus::Fail(CheckpointError::kMalformed,
                                    "tensor section: truncated at tensor " +
                                        std::to_string(i));
    }
    if (rank != t.rank()) {
      return CheckpointStatus::Fail(
          CheckpointError::kShapeMismatch,
          "tensor " + std::to_string(i) + " has rank " + std::to_string(rank) +
              ", expected " + std::to_string(t.rank()));
    }
    for (int64_t expected : t.shape()) {
      int64_t d = 0;
      if (!in.GetI64(&d)) {
        return CheckpointStatus::Fail(CheckpointError::kMalformed,
                                      "tensor section: truncated at tensor " +
                                          std::to_string(i));
      }
      if (d != expected) {
        return CheckpointStatus::Fail(
            CheckpointError::kShapeMismatch,
            "tensor " + std::to_string(i) + " dim " + std::to_string(d) +
                " != expected " + std::to_string(expected));
      }
    }
    if (!in.GetFloats(&staged[i]) || staged[i].size() != t.data().size()) {
      return CheckpointStatus::Fail(CheckpointError::kMalformed,
                                    "tensor section: bad value payload for tensor " +
                                        std::to_string(i));
    }
  }
  *out_staged = std::move(staged);
  return CheckpointStatus::Ok();
}

// --- Checkpoint directories --------------------------------------------------

std::string CheckpointFileName(int epoch) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06d%s", kCheckpointPrefix, epoch,
                kCheckpointSuffix);
  return name;
}

std::vector<std::pair<int, std::string>> ListCheckpoints(const std::string& dir) {
  std::vector<std::pair<int, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    size_t prefix_len = sizeof(kCheckpointPrefix) - 1;
    size_t suffix_len = sizeof(kCheckpointSuffix) - 1;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, kCheckpointPrefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len, kCheckpointSuffix) != 0) {
      continue;
    }
    std::string digits = name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stoi(digits), entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

void PruneCheckpoints(const std::string& dir, int keep_last) {
  if (keep_last < 1) keep_last = 1;
  std::vector<std::pair<int, std::string>> found = ListCheckpoints(dir);
  std::error_code ec;
  for (size_t i = static_cast<size_t>(keep_last); i < found.size(); ++i) {
    std::filesystem::remove(found[i].second, ec);
  }
}

}  // namespace sarn::nn
