// Fuzz-style corruption suite for the snapshot directory formats (ctest
// label `stress`; the stress CI leg runs it under ASan).
//
// Property under test: a random single-byte flip anywhere in a snapshot
// directory — manifest, base snapshots, delta segments — is never silently
// accepted and never crashes. Binary files
// carry a CRC-64 trailer (which detects every single-byte error), so a flip
// there must make restore either fail cleanly or fall back to the durable
// prefix that excludes the flipped epoch. The manifest carries an in-band
// crc line covering every byte, so any flip there must be rejected
// outright.
//
// Each artifact has exactly one format version, and its reader rejects
// every other one: a file whose version field is rewritten (with a valid
// checksum) fails with a clean IOError and leaves the restoring fleet
// untouched.

#include <gtest/gtest.h>

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/dynamic_graph.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"
#include "storage/checked_io.h"
#include "storage/delta_segment.h"
#include "storage/sharded_snapshot.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"

namespace spade {
namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kVertices = 96;

Partitioner ParityPartitioner() {
  return Partitioner(
      [](const Edge& e) -> std::size_t { return e.src % kShards; },
      [](VertexId v) -> std::size_t { return v % kShards; });
}

std::unique_ptr<ShardedDetectionService> BuildService(
    const std::vector<Edge>& initial) {
  std::vector<std::vector<Edge>> parts(kShards);
  for (const Edge& e : initial) parts[e.src % kShards].push_back(e);
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(spade.BuildGraph(kVertices, parts[s]).ok());
    shards.push_back(std::move(spade));
  }
  ShardedDetectionServiceOptions options;
  options.partitioner = ParityPartitioner();
  options.shard.detect_every = 16;
  options.checkpoint.max_chain_length = 1000;
  options.checkpoint.max_delta_base_ratio = 1e9;
  auto service = std::make_unique<ShardedDetectionService>(
      std::move(shards), nullptr, std::move(options));
  return service;
}

std::vector<testing::ShardCapture> CaptureShards(
    const ShardedDetectionService& service) {
  std::vector<testing::ShardCapture> captures(service.num_shards());
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    service.InspectShard(s, [&](const Spade& spade) {
      captures[s].state = spade.peel_state();
      captures[s].num_edges = spade.graph().NumEdges();
      captures[s].total_weight = spade.graph().TotalWeight();
      captures[s].pending_benign = spade.PendingBenignEdges();
    });
  }
  return captures;
}

std::string ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::filesystem::path& path,
                    const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A CRC-framed binary file with its u32 version field (right after the
/// u64 magic) set to `version` and the trailer recomputed, so the version
/// is the only thing wrong with it.
std::string WithBinaryVersion(std::string bytes, std::uint32_t version) {
  std::memcpy(bytes.data() + sizeof(std::uint64_t), &version,
              sizeof(version));
  const std::size_t payload = bytes.size() - sizeof(std::uint64_t);
  const std::uint64_t crc = Crc64(bytes.data(), payload);
  std::memcpy(bytes.data() + payload, &crc, sizeof(crc));
  return bytes;
}

/// A manifest with its header line set to `version` and the crc line
/// recomputed.
std::string WithManifestVersion(const std::string& text,
                                std::uint32_t version) {
  const std::size_t eol = text.find('\n');
  const std::size_t crc_pos = text.rfind("crc ");
  const std::string body = "spade-shard-manifest " + std::to_string(version) +
                           text.substr(eol, crc_pos - eol);
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc %016" PRIx64 "\n",
                Crc64(body.data(), body.size()));
  return body + crc_line;
}

class CorruptionFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/spade_corruption_test";
    work_ = dir_ + ".work";
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(work_);

    // Build a 2-epoch chain: full base (epoch 1), traffic, delta (epoch 2).
    Rng rng(11);
    for (int i = 0; i < 250; ++i) {
      initial_.push_back(testing::RandomEdge(&rng, kVertices));
    }
    auto service = BuildService(initial_);
    EXPECT_TRUE(service->SaveState(dir_).ok());
    captures_.push_back(CaptureShards(*service));  // epoch 1
    std::vector<Edge> chunk;
    for (int i = 0; i < 90; ++i) {
      chunk.push_back(testing::RandomEdge(&rng, kVertices));
    }
    EXPECT_TRUE(service->SubmitBatch(chunk).ok());
    service->Drain();
    ShardedDetectionService::SaveInfo info;
    EXPECT_TRUE(service
                    ->SaveState(dir_, ShardedDetectionService::SaveMode::kAuto,
                                &info)
                    .ok());
    EXPECT_TRUE(info.delta);
    captures_.push_back(CaptureShards(*service));  // epoch 2
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(work_);
  }

  /// Fresh mutable copy of the pristine directory. Restores are allowed
  /// to garbage-collect torn epochs from the directory they recover, so
  /// every trial fuzzes its own copy.
  void ResetWorkDir() {
    std::filesystem::remove_all(work_);
    std::filesystem::copy(dir_, work_,
                          std::filesystem::copy_options::recursive);
  }

  std::string dir_;
  std::string work_;
  std::vector<Edge> initial_;
  std::vector<std::vector<testing::ShardCapture>> captures_;  // [epoch-1]
};

// Every single-byte flip in a CRC-framed binary file is detected: flips in
// epoch-2 chain files force recovery to epoch 1; flips in base files fail
// the restore outright. Nothing is ever silently accepted as a different
// graph.
TEST_F(CorruptionFuzzTest, BinaryFilesNeverAcceptAFlip) {
  struct Target {
    std::string file;
    bool base;  // base files: restore must fail; chain files: fall back
  };
  std::vector<Target> targets;
  for (std::size_t s = 0; s < kShards; ++s) {
    targets.push_back({ShardSnapshotFileName(s, 1), true});
    targets.push_back({ShardDeltaFileName(s, 2), false});
  }

  Rng rng(23);
  for (const Target& target : targets) {
    const std::string pristine =
        ReadFileBytes(std::filesystem::path(dir_) / target.file);
    ASSERT_FALSE(pristine.empty()) << target.file;
    const std::size_t trials =
        std::min<std::size_t>(pristine.size(), 150);
    for (std::size_t t = 0; t < trials; ++t) {
      const std::size_t pos =
          trials == pristine.size() ? t : rng.NextBounded(pristine.size());
      std::string flipped = pristine;
      flipped[pos] = static_cast<char>(
          flipped[pos] ^ static_cast<char>(1 + rng.NextBounded(255)));
      ResetWorkDir();
      WriteFileBytes(std::filesystem::path(work_) / target.file, flipped);
      auto victim = BuildService(initial_);
      ShardedDetectionService::RestoreInfo info;
      const Status s = victim->RestoreState(work_, &info);
      if (target.base) {
        // Base flip: unrecoverable, must fail cleanly (phase-1
        // validation, so the victim is untouched — RecoveryTest pins that
        // part).
        ASSERT_FALSE(s.ok())
            << target.file << " flip at " << pos << " was accepted";
      } else {
        // Chain flip: must fall back to epoch 1 (and only epoch 1).
        ASSERT_TRUE(s.ok())
            << target.file << " flip at " << pos << ": " << s.ToString();
        ASSERT_EQ(info.restored_epoch, 1u)
            << target.file << " flip at " << pos << " was accepted";
        const auto restored = CaptureShards(*victim);
        for (std::size_t sh = 0; sh < kShards; ++sh) {
          testing::ExpectShardEqualsCapture(captures_[0][sh], restored[sh]);
        }
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "stopping after failure at " << target.file << " byte "
               << pos;
      }
    }
  }
}

// The manifest's in-band crc line makes every single-byte flip a parse
// failure — including flips in fields no structural check covers (the
// semantics name, a digit of a file name).
TEST_F(CorruptionFuzzTest, ManifestRejectsEveryFlip) {
  const auto path = std::filesystem::path(dir_) / "manifest.spade";
  const std::string pristine = ReadFileBytes(path);
  ASSERT_FALSE(pristine.empty());
  Rng rng(31);
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::string flipped = pristine;
    flipped[pos] = static_cast<char>(
        flipped[pos] ^ static_cast<char>(1 + rng.NextBounded(255)));
    WriteFileBytes(path, flipped);
    ShardManifest manifest;
    const Status s = ReadShardManifest(dir_, &manifest);
    EXPECT_FALSE(s.ok()) << "flip at byte " << pos << " ('"
                         << pristine[pos] << "') was accepted";
    // And therefore the restore fails cleanly too.
    auto victim = BuildService(initial_);
    EXPECT_FALSE(victim->RestoreState(dir_).ok());
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping after failure at manifest byte " << pos;
    }
  }
  WriteFileBytes(path, pristine);
}

// Each artifact's reader accepts exactly the one version its writer emits.
// The version field is rewritten to every other value the format ever
// used and to version + 1, with a valid checksum: the artifact's own
// reader must fail with IOError, and so must the fleet that reads it — a
// full restore for base files and the manifest, the warm-standby increment
// for chain files (a full restore would fall back to epoch 1 instead) —
// leaving that fleet exactly as it was. Rewriting to the current version
// is the control: the rewrite itself produces a file that restores.
TEST_F(CorruptionFuzzTest, EachReaderAcceptsOnlyItsVersion) {
  const auto join = [](const std::string& dir, const std::string& name) {
    return (std::filesystem::path(dir) / name).string();
  };
  struct Artifact {
    std::string file;
    std::uint32_t version;                // the one version written
    std::vector<std::uint32_t> retired;   // versions earlier writers used
    bool chain;                           // epoch-2 chain file
    std::function<Status(const std::string& dir)> read;
  };
  const std::vector<Artifact> artifacts = {
      {ShardSnapshotFileName(0, 1), 2, {1}, false,
       [&](const std::string& dir) {
         DynamicGraph g;
         return LoadSnapshot(join(dir, ShardSnapshotFileName(0, 1)), &g,
                             nullptr, nullptr);
       }},
      {ShardDeltaFileName(0, 2), 3, {1, 2}, true,
       [&](const std::string& dir) {
         DeltaSegment segment;
         return ReadDeltaSegment(join(dir, ShardDeltaFileName(0, 2)),
                                 &segment);
       }},
      {"manifest.spade", 4, {1, 2, 3}, false,
       [](const std::string& dir) {
         ShardManifest manifest;
         return ReadShardManifest(dir, &manifest);
       }},
  };
  for (const Artifact& a : artifacts) {
    const std::string pristine =
        ReadFileBytes(std::filesystem::path(dir_) / a.file);
    ASSERT_FALSE(pristine.empty()) << a.file;
    std::vector<std::uint32_t> versions = a.retired;
    versions.push_back(a.version + 1);
    versions.push_back(a.version);
    for (const std::uint32_t version : versions) {
      ResetWorkDir();
      WriteFileBytes(std::filesystem::path(work_) / a.file,
                     a.file == "manifest.spade"
                         ? WithManifestVersion(pristine, version)
                         : WithBinaryVersion(pristine, version));
      const Status read = a.read(work_);
      // A chain file is applied on top of a fleet at epoch 1 (a fresh
      // build of the initial graph); anything else restores into an empty
      // fleet, which a successful restore would visibly change.
      auto victim = BuildService(a.chain ? initial_ : std::vector<Edge>{});
      const auto before = CaptureShards(*victim);
      const Status restore =
          a.chain ? victim->ApplyChainEpoch(work_, 2, std::chrono::seconds(10))
                  : victim->RestoreState(work_);
      const auto after = CaptureShards(*victim);
      if (version == a.version) {
        ASSERT_TRUE(read.ok()) << a.file << ": " << read.ToString();
        ASSERT_TRUE(restore.ok()) << a.file << ": " << restore.ToString();
        for (std::size_t sh = 0; sh < kShards; ++sh) {
          testing::ExpectShardEqualsCapture(captures_[1][sh], after[sh]);
        }
        continue;
      }
      EXPECT_EQ(read.code(), StatusCode::kIOError)
          << a.file << " v" << version << ": " << read.ToString();
      EXPECT_EQ(restore.code(), StatusCode::kIOError)
          << a.file << " v" << version << ": " << restore.ToString();
      for (std::size_t sh = 0; sh < kShards; ++sh) {
        testing::ExpectShardEqualsCapture(before[sh], after[sh]);
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "stopping after failure at " << a.file << " v" << version;
      }
    }
  }
}

}  // namespace
}  // namespace spade
