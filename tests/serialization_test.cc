#include "nn/serialization.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/sarn_model.h"
#include "nn/linear.h"
#include "roadnet/synthetic_city.h"
#include "tensor/ops.h"

namespace sarn::nn {
namespace {

using tensor::Tensor;

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A small two-section checkpoint used by the fault-injection tests.
TrainingCheckpoint MakeCheckpoint() {
  TrainingCheckpoint ckpt;
  ByteWriter a;
  a.PutI64(7);
  a.PutF64(2.5);
  ckpt.SetSection("test/a", a.Take());
  ByteWriter b;
  b.PutFloats({1.0f, 2.0f, 3.0f});
  ckpt.SetSection("test/b", b.Take());
  return ckpt;
}

// --- TrainingCheckpoint container -------------------------------------------

TEST(TrainingCheckpointTest, RoundTripPreservesSections) {
  std::string path = TempPath("ckpt_roundtrip.sarnckpt");
  TrainingCheckpoint original = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(path, original).ok());

  TrainingCheckpoint loaded;
  CheckpointStatus status = LoadCheckpoint(path, &loaded);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_EQ(loaded.sections.size(), original.sections.size());
  for (size_t i = 0; i < original.sections.size(); ++i) {
    EXPECT_EQ(loaded.sections[i].first, original.sections[i].first);
    EXPECT_EQ(loaded.sections[i].second, original.sections[i].second);
  }
  // Typed values survive.
  ByteReader in(*loaded.FindSection("test/a"));
  int64_t v = 0;
  double d = 0.0;
  EXPECT_TRUE(in.GetI64(&v));
  EXPECT_TRUE(in.GetF64(&d));
  EXPECT_EQ(v, 7);
  EXPECT_EQ(d, 2.5);
  std::remove(path.c_str());
}

TEST(TrainingCheckpointTest, AtomicWriteLeavesNoTmpFile) {
  std::string path = TempPath("ckpt_atomic.sarnckpt");
  ASSERT_TRUE(SaveCheckpoint(path, MakeCheckpoint()).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(TrainingCheckpointTest, MissingFileIsIoError) {
  TrainingCheckpoint ckpt;
  CheckpointStatus status = LoadCheckpoint(TempPath("ckpt_nonexistent.sarnckpt"), &ckpt);
  EXPECT_EQ(status.error, CheckpointError::kIoError);
}

TEST(TrainingCheckpointTest, GarbageFileIsBadMagic) {
  std::string path = TempPath("ckpt_garbage.sarnckpt");
  WriteFile(path, "this is definitely not a checkpoint file at all");
  TrainingCheckpoint ckpt;
  CheckpointStatus status = LoadCheckpoint(path, &ckpt);
  EXPECT_EQ(status.error, CheckpointError::kBadMagic);
  std::remove(path.c_str());
}

TEST(TrainingCheckpointTest, TruncatedFileIsTruncatedError) {
  std::string path = TempPath("ckpt_truncated.sarnckpt");
  ASSERT_TRUE(SaveCheckpoint(path, MakeCheckpoint()).ok());
  std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 25u);
  // Cut the file mid-payload: header promises more bytes than exist.
  WriteFile(path, bytes.substr(0, bytes.size() - 10));
  TrainingCheckpoint ckpt;
  CheckpointStatus status = LoadCheckpoint(path, &ckpt);
  EXPECT_EQ(status.error, CheckpointError::kTruncated) << status.message;
  EXPECT_TRUE(ckpt.sections.empty());  // Never half-loaded.
  std::remove(path.c_str());
}

TEST(TrainingCheckpointTest, FlippedPayloadByteIsCrcMismatch) {
  std::string path = TempPath("ckpt_bitflip.sarnckpt");
  ASSERT_TRUE(SaveCheckpoint(path, MakeCheckpoint()).ok());
  std::string bytes = ReadFile(path);
  // Header is magic(8) + version(4) + size(8) = 20 bytes; flip one payload bit.
  size_t payload_offset = 20;
  ASSERT_GT(bytes.size(), payload_offset + 4);
  bytes[payload_offset + 3] = static_cast<char>(bytes[payload_offset + 3] ^ 0x40);
  WriteFile(path, bytes);
  TrainingCheckpoint ckpt;
  CheckpointStatus status = LoadCheckpoint(path, &ckpt);
  EXPECT_EQ(status.error, CheckpointError::kCrcMismatch) << status.message;
  EXPECT_TRUE(ckpt.sections.empty());
  std::remove(path.c_str());
}

TEST(TrainingCheckpointTest, WrongVersionIsBadVersion) {
  std::string path = TempPath("ckpt_version.sarnckpt");
  ASSERT_TRUE(SaveCheckpoint(path, MakeCheckpoint()).ok());
  std::string bytes = ReadFile(path);
  // The u32 version sits right after the 8-byte magic (not CRC-covered).
  bytes[8] = static_cast<char>(kCheckpointVersion + 1);
  WriteFile(path, bytes);
  TrainingCheckpoint ckpt;
  CheckpointStatus status = LoadCheckpoint(path, &ckpt);
  EXPECT_EQ(status.error, CheckpointError::kBadVersion) << status.message;
  std::remove(path.c_str());
}

TEST(TrainingCheckpointTest, EachCorruptionModeHasDistinctError) {
  // The four fixtures above must be distinguishable by error code alone.
  EXPECT_NE(CheckpointError::kTruncated, CheckpointError::kCrcMismatch);
  EXPECT_NE(CheckpointError::kBadVersion, CheckpointError::kCrcMismatch);
  EXPECT_NE(CheckpointError::kBadMagic, CheckpointError::kBadVersion);
  EXPECT_STRNE(CheckpointErrorName(CheckpointError::kTruncated),
               CheckpointErrorName(CheckpointError::kCrcMismatch));
}

TEST(TrainingCheckpointTest, TensorShapeMismatchNeverHalfLoads) {
  Rng rng(11);
  Linear source(4, 3, rng);
  ByteWriter out;
  WriteTensors(out, source.Parameters());
  std::string payload = out.Take();

  Linear wrong(4, 5, rng);  // Different output width.
  std::vector<float> before = wrong.Parameters()[0].data().ToVector();
  ByteReader in(payload);
  CheckpointStatus status = ReadTensorsInto(in, wrong.Parameters());
  EXPECT_EQ(status.error, CheckpointError::kShapeMismatch) << status.message;
  // Strong guarantee: the mismatched target is untouched, not half-loaded.
  EXPECT_EQ(wrong.Parameters()[0].data(), before);
}

TEST(TrainingCheckpointTest, WriteReadTensorsIsBitwise) {
  Rng rng(13);
  Linear source(6, 4, rng);
  Linear dest(6, 4, rng);  // Different init values.
  ByteWriter out;
  WriteTensors(out, source.Parameters());
  std::string payload = out.Take();
  ByteReader in(payload);
  ASSERT_TRUE(ReadTensorsInto(in, dest.Parameters()).ok());
  for (size_t p = 0; p < source.Parameters().size(); ++p) {
    EXPECT_EQ(source.Parameters()[p].data(), dest.Parameters()[p].data());
  }
}

TEST(TrainingCheckpointTest, ListAndPruneCheckpoints) {
  std::string dir = TempPath("ckpt_dir_rotation");
  std::filesystem::create_directories(dir);
  for (int epoch : {1, 2, 3, 4, 5}) {
    ASSERT_TRUE(
        SaveCheckpoint(dir + "/" + CheckpointFileName(epoch), MakeCheckpoint()).ok());
  }
  WriteFile(dir + "/unrelated.txt", "ignore me");

  auto found = ListCheckpoints(dir);
  ASSERT_EQ(found.size(), 5u);
  EXPECT_EQ(found.front().first, 5);  // Newest first.
  EXPECT_EQ(found.back().first, 1);

  PruneCheckpoints(dir, 2);
  found = ListCheckpoints(dir);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].first, 5);
  EXPECT_EQ(found[1].first, 4);
  EXPECT_TRUE(std::filesystem::exists(dir + "/unrelated.txt"));
  std::filesystem::remove_all(dir);
}

TEST(TrainingCheckpointTest, ResumeSkipsCorruptAndUsesOlderValid) {
  // The trainer-facing contract: a corrupt newest checkpoint must not stop
  // resume — the loader reports it and the trainer falls back to the next.
  std::string dir = TempPath("ckpt_dir_fallback");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(1), MakeCheckpoint()).ok());
  ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(2), MakeCheckpoint()).ok());
  // Corrupt the newest.
  std::string newest = dir + "/" + CheckpointFileName(2);
  std::string bytes = ReadFile(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  WriteFile(newest, bytes);

  int loaded_epoch = -1;
  for (const auto& [epoch, path] : ListCheckpoints(dir)) {
    TrainingCheckpoint ckpt;
    if (LoadCheckpoint(path, &ckpt).ok()) {
      loaded_epoch = epoch;
      break;
    }
  }
  EXPECT_EQ(loaded_epoch, 1);
  std::filesystem::remove_all(dir);
}

core::SarnConfig TinySarnConfig() {
  core::SarnConfig config;
  config.hidden_dim = 8;
  config.embedding_dim = 8;
  config.projection_dim = 4;
  config.gat_layers = 1;
  config.gat_heads = 2;
  config.feature_dim_per_feature = 2;
  config.max_epochs = 2;
  return config;
}

// SaveWeights writes the training-checkpoint container with just the
// variant tag and the online branch; LoadFromTrainingCheckpoint restores it
// bit for bit.
TEST(SerializationTest, SarnModelWeightsRoundTrip) {
  roadnet::SyntheticCityConfig city;
  city.rows = 8;
  city.cols = 8;
  roadnet::RoadNetwork network = roadnet::GenerateSyntheticCity(city);
  core::SarnConfig config = TinySarnConfig();
  core::SarnModel trained(network, config);
  trained.Train();
  std::string path = TempPath("sarn_model.ckpt");
  nn::CheckpointStatus saved = trained.SaveWeights(path);
  ASSERT_TRUE(saved.ok()) << saved.message;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  TrainingCheckpoint ckpt;
  ASSERT_TRUE(LoadCheckpoint(path, &ckpt).ok());
  ASSERT_EQ(ckpt.sections.size(), 2u);
  EXPECT_EQ(ckpt.sections[0].first, core::kSectionVariant);
  EXPECT_EQ(ckpt.sections[1].first, core::kSectionOnline);

  config.seed = 777;  // Different init.
  core::SarnModel restored(network, config);
  core::ModelLoadStatus status = restored.LoadFromTrainingCheckpoint(path);
  ASSERT_TRUE(status.ok()) << status.message;
  Tensor a = trained.Embeddings();
  Tensor b = restored.Embeddings();
  ASSERT_EQ(a.data().ToVector(), b.data().ToVector());
  std::remove(path.c_str());
}

// A weights file from a different architecture is rejected as such, and the
// model it was offered to keeps every parameter.
TEST(SerializationTest, SarnModelWeightsArchitectureMismatchLeavesModelUntouched) {
  roadnet::SyntheticCityConfig city;
  city.rows = 8;
  city.cols = 8;
  roadnet::RoadNetwork network = roadnet::GenerateSyntheticCity(city);
  core::SarnModel small(network, TinySarnConfig());
  std::string path = TempPath("sarn_model_small.ckpt");
  ASSERT_TRUE(small.SaveWeights(path).ok());

  core::SarnConfig wide_config = TinySarnConfig();
  wide_config.hidden_dim = 16;
  wide_config.embedding_dim = 16;
  core::SarnModel wide(network, wide_config);
  const std::vector<float> before = wide.Embeddings().data().ToVector();
  core::ModelLoadStatus status = wide.LoadFromTrainingCheckpoint(path);
  EXPECT_EQ(status.error, core::ModelLoadError::kArchitectureMismatch) << status.message;
  EXPECT_EQ(wide.Embeddings().data().ToVector(), before);
  std::remove(path.c_str());
}

// The variant tag travels inside training checkpoints (section
// "sarn/variant"); its serialization must round-trip and reject truncation
// rather than half-read.
TEST(SerializationTest, VariantTagRoundTrip) {
  core::VariantTag tag;
  tag.encoder = "rfn";
  tag.augmentation = "third-law";
  tag.negatives = "in-batch";
  ByteWriter out;
  core::WriteVariantTag(out, tag);
  const std::string bytes = out.Take();

  ByteReader in(bytes);
  core::VariantTag restored;
  ASSERT_TRUE(core::ReadVariantTag(in, &restored));
  EXPECT_EQ(restored, tag);
  EXPECT_EQ(core::VariantTagString(restored),
            "encoder=rfn augmentation=third-law negatives=in-batch");

  // ByteReader views its input; keep the truncated copy alive past the read.
  const std::string half = bytes.substr(0, bytes.size() / 2);
  ByteReader truncated(half);
  core::VariantTag partial;
  EXPECT_FALSE(core::ReadVariantTag(truncated, &partial));
}

}  // namespace
}  // namespace sarn::nn
