// The checkpoint registry keeps offsets, not snapshots: the store's heap
// does not grow with the checkpoints it holds, a checkpoint is read back
// from the log on demand and a damaged one is an error (never a fresh
// start), compaction moves the offsets onto the rewritten log, and the
// windowed replay scan rebuilds the same registry on the mmap and the
// streamed path.

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "kgacc/eval/runner.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/store/compaction.h"
#include "kgacc/store/log_format.h"
#include "kgacc/store/log_reader.h"
#include "kgacc/util/failpoint.h"

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KGACC_SANITIZER_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KGACC_SANITIZER_HEAP 1
#endif
#endif

#ifdef KGACC_SANITIZER_HEAP
// From the sanitizer runtime (declared in <sanitizer/allocator_interface.h>,
// which not every toolchain installs).
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#endif

namespace kgacc {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/kgacc_registry_test_" + name + "_" +
         std::to_string(::getpid());
}

/// Bytes currently allocated on the heap. A sanitizer runtime replaces
/// malloc, so ask it; otherwise glibc's arenas (small chunks plus mmapped
/// large ones).
size_t LiveHeapBytes() {
#ifdef KGACC_SANITIZER_HEAP
  return __sanitizer_get_current_allocated_bytes();
#else
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
#endif
}

/// A deterministic snapshot body: `size` bytes seeded by `tag`.
std::vector<uint8_t> Pattern(uint64_t tag, size_t size) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>((tag * 131 + i * 7 + (i >> 8)) & 0xff);
  }
  return bytes;
}

/// The stored checkpoint for `audit_id`; a read error fails the test.
std::optional<std::vector<uint8_t>> StoredCheckpoint(
    const AnnotationStore& store, uint64_t audit_id) {
  Result<std::optional<std::vector<uint8_t>>> read =
      store.LatestCheckpoint(audit_id);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  return read.value_or(std::nullopt);
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

SyntheticKg TestKg() {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 500;
  cfg.mean_cluster_size = 3.5;
  cfg.accuracy = 0.82;
  cfg.seed = 31;
  return *SyntheticKg::Create(cfg);
}

TEST(CheckpointRegistryTest, RegistryHoldsNoSnapshotBytes) {
  // 2,000 audits x 16 KB of snapshots is ~32 MB of checkpoint data. A
  // registry that copied them would grow the heap by that much; one that
  // holds offsets grows by its map nodes alone.
  constexpr uint64_t kAudits = 2000;
  constexpr size_t kSnapshotBytes = 16 * 1024;
  const std::string path = TempPath("residency");
  std::remove(path.c_str());
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> snapshot = Pattern(1, kSnapshotBytes);
  // Warm-up append: the log's stdio buffer and the commit path's first
  // allocations are not the registry's.
  ASSERT_TRUE((*store)->AppendCheckpoint(kAudits, snapshot).ok());

  const size_t before = LiveHeapBytes();
  for (uint64_t audit = 0; audit < kAudits; ++audit) {
    ASSERT_TRUE((*store)->AppendCheckpoint(audit, snapshot).ok());
  }
  const size_t after = LiveHeapBytes();
  const size_t growth = after > before ? after - before : 0;
  EXPECT_LT(growth, size_t{1} << 20)
      << "heap grew by " << growth << " bytes over " << kAudits
      << " checkpoints";
  EXPECT_GT((*store)->file_bytes(), kAudits * kSnapshotBytes);
  EXPECT_EQ(StoredCheckpoint(**store, 0), snapshot);
  EXPECT_EQ(StoredCheckpoint(**store, kAudits - 1), snapshot);
  std::remove(path.c_str());
}

TEST(CheckpointRegistryTest, DamagedCheckpointFailsTheResumeLoudly) {
  const auto kg = TestKg();
  EvaluationConfig config;  // aHPD, alpha = eps = 0.05.
  const std::string path = TempPath("damaged");
  std::remove(path.c_str());
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  AuditRunner::Wiring wiring;
  wiring.store = store->get();
  wiring.audit_id = 1;
  wiring.checkpoint = CheckpointOptions{};
  {
    OracleAnnotator oracle;
    SrsSampler sampler(kg, SrsConfig{});
    AuditRunner runner(sampler, oracle, config, 5, wiring);
    ASSERT_EQ(runner.Advance(3), RunOutcome::kParked);
  }

  // Re-append the real snapshot so its frame is the last one in the file,
  // then flip its last snapshot byte (the CRC is the 4 bytes after it)
  // behind the store's back, through a second descriptor.
  const std::optional<std::vector<uint8_t>> snapshot =
      StoredCheckpoint(**store, 1);
  ASSERT_TRUE(snapshot.has_value());
  ASSERT_TRUE((*store)->AppendCheckpoint(1, *snapshot).ok());
  const uint64_t last_snapshot_byte = (*store)->file_bytes() - 5;
  {
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    uint8_t byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, static_cast<off_t>(last_snapshot_byte)),
              1);
    byte ^= 0x10;
    ASSERT_EQ(::pwrite(fd, &byte, 1, static_cast<off_t>(last_snapshot_byte)),
              1);
    ::close(fd);
  }

  EXPECT_TRUE((*store)->HasCheckpoint(1));
  const auto read = (*store)->LatestCheckpoint(1);
  ASSERT_FALSE(read.ok()) << "a damaged checkpoint read back as data";
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);

  // The runner's resume surfaces the error; it must not restart fresh.
  OracleAnnotator oracle;
  SrsSampler sampler(kg, SrsConfig{});
  AuditRunner runner(sampler, oracle, config, 5, wiring);
  const Result<bool> resumed = runner.Resume();
  ASSERT_FALSE(resumed.ok()) << "a damaged checkpoint resumed as a fresh start";
  EXPECT_EQ(resumed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(runner.session().iterations(), 0);

  // Compaction copies frames only after they read back intact, so it
  // refuses to carry the damage into a rewrite.
  EXPECT_EQ((*store)->Compact().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(CheckpointRegistryTest, LatestWinsAcrossCompactionAndReopen) {
  const std::string path = TempPath("latest_wins");
  std::remove(path.c_str());
  // version[a] = the tag of audit a's latest snapshot.
  std::vector<uint64_t> version(12, 0);
  const auto checkpoint = [&](AnnotationStore& store, uint64_t audit,
                              uint64_t tag) {
    version[audit] = tag;
    ASSERT_TRUE(
        store.AppendCheckpoint(audit, Pattern(tag, 300 + 17 * audit)).ok());
  };
  const auto expect_latest = [&](const AnnotationStore& store) {
    for (uint64_t audit = 0; audit < version.size(); ++audit) {
      SCOPED_TRACE("audit " + std::to_string(audit));
      EXPECT_EQ(StoredCheckpoint(store, audit),
                Pattern(version[audit], 300 + 17 * audit));
    }
  };
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    for (uint64_t round = 1; round <= 3; ++round) {
      for (uint64_t audit = 0; audit < version.size(); ++audit) {
        if ((audit + round) % 3 == 0) continue;  // Uneven supersession.
        checkpoint(**store, audit, 100 * round + audit);
        ASSERT_TRUE((*store)->Append(audit, round, audit, true).ok());
      }
    }
    expect_latest(**store);

    // Compaction moves every entry to its offset in the rewritten log.
    ASSERT_TRUE((*store)->Compact().ok());
    EXPECT_EQ((*store)->garbage_ratio(), 0.0);
    expect_latest(**store);

    // Appends after the swap are recorded against the new file.
    checkpoint(**store, 4, 999);
    checkpoint(**store, 0, 998);
    expect_latest(**store);
  }
  const Result<StoreVerifyInfo> verify = VerifyStoreLog(path);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_TRUE(verify->compacted);

  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  expect_latest(**store);
  EXPECT_FALSE((*store)->HasCheckpoint(version.size()));
  std::remove(path.c_str());
}

TEST(CheckpointRegistryTest, ReadsRaceCompactionSafely) {
  // Readers hold only the checkpoint lock while a writer appends and
  // compacts: every read must see some complete snapshot of its audit,
  // whichever log and offsets it caught.
  constexpr uint64_t kAudits = 8;
  constexpr size_t kBytes = 512;
  const std::string path = TempPath("race");
  std::remove(path.c_str());
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  for (uint64_t audit = 0; audit < kAudits; ++audit) {
    ASSERT_TRUE(
        (*store)->AppendCheckpoint(audit, std::vector<uint8_t>(kBytes, 0))
            .ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const auto read = (*store)->LatestCheckpoint((i + r) % kAudits);
        // Snapshot bodies are uniform: all bytes equal the write's round.
        if (!read.ok() || !read->has_value() || (*read)->size() != kBytes ||
            std::count((*read)->begin(), (*read)->end(), (**read)[0]) !=
                static_cast<long>(kBytes)) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int round = 1; round <= 40; ++round) {
    for (uint64_t audit = 0; audit < kAudits; ++audit) {
      ASSERT_TRUE((*store)
                      ->AppendCheckpoint(audit, std::vector<uint8_t>(
                                                    kBytes, uint8_t(round)))
                      .ok());
    }
    if (round % 4 == 0) {
      ASSERT_TRUE((*store)->Compact().ok());
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(StoredCheckpoint(**store, 0), std::vector<uint8_t>(kBytes, 40));
  std::remove(path.c_str());
}

TEST(CheckpointRegistryTest, WindowedScanRebuildsTheSameRegistry) {
  // More than three 4 MiB scan windows of checkpoint frames, with sizes
  // chosen so frames straddle every window boundary, and a second round
  // that supersedes some audits (latest-wins across windows).
  constexpr uint64_t kAudits = 200;
  constexpr uint64_t kRewritten = 25;
  constexpr uint64_t kWindow = uint64_t{4} << 20;
  const auto size_of = [](uint64_t audit) -> size_t {
    return 65536 + 37 * audit;
  };
  const std::string path = TempPath("windows");
  std::remove(path.c_str());
  std::vector<uint64_t> frame_starts;
  uint64_t end = walfmt::kMagicSize;
  const auto place = [&](uint64_t audit) {
    const uint64_t snapshot = size_of(audit);
    const uint64_t payload = walfmt::VarintLength(audit) +
                             walfmt::VarintLength(snapshot) + snapshot;
    frame_starts.push_back(end);
    end += walfmt::FrameBytesOnDisk(payload);
  };
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    for (uint64_t audit = 0; audit < kAudits; ++audit) {
      ASSERT_TRUE(
          (*store)->AppendCheckpoint(audit, Pattern(audit, size_of(audit)))
              .ok());
      place(audit);
    }
    for (uint64_t audit = 0; audit < kRewritten; ++audit) {
      ASSERT_TRUE((*store)
                      ->AppendCheckpoint(
                          audit, Pattern(audit + 1000, size_of(audit)))
                      .ok());
      place(audit);
    }
    ASSERT_EQ((*store)->file_bytes(), end);
  }
  ASSERT_GT(end, 3 * kWindow);
  // No frame starts on a window boundary: each boundary cuts a frame.
  for (uint64_t boundary = kWindow; boundary < end; boundary += kWindow) {
    EXPECT_FALSE(std::binary_search(frame_starts.begin(), frame_starts.end(),
                                    boundary));
  }

  const auto expect_registry = [&](const AnnotationStore& store) {
    EXPECT_EQ(store.stats().checkpoints_replayed, kAudits + kRewritten);
    EXPECT_EQ(store.stats().recovery.bytes_kept, end);
    EXPECT_FALSE(store.stats().recovery.truncated_tail);
    for (uint64_t audit = 0; audit < kAudits; ++audit) {
      const uint64_t tag = audit < kRewritten ? audit + 1000 : audit;
      ASSERT_EQ(StoredCheckpoint(store, audit), Pattern(tag, size_of(audit)))
          << "audit " << audit;
    }
  };
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE((*store)->stats().recovery.used_mmap);
    expect_registry(**store);
  }
  {
    ScopedFailpoints armed("store.mmap=prob:1");
    ASSERT_TRUE(armed.status().ok());
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_FALSE((*store)->stats().recovery.used_mmap);
    expect_registry(**store);
  }

  // A released prefix stays readable: its pages fault back from the file.
  const std::vector<uint8_t> contents = ReadFile(path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  Result<LogReader> reader = LogReader::Open(fd, path);
  ::close(fd);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->mapped());
  reader->ReleaseBefore(2 * kWindow + 123);
  reader->ReleaseBefore(kWindow);  // Again, over pages already dropped.
  ASSERT_EQ(reader->data().size(), contents.size());
  EXPECT_TRUE(std::equal(contents.begin(), contents.end(),
                         reader->data().begin()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
