#include "kgacc/store/compaction.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "kgacc/store/annotation_store.h"
#include "kgacc/store/log_format.h"
#include "kgacc/store/log_reader.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"

/// \file compaction.cc
/// Size-tiered compaction for the annotation store, plus the offline log
/// verifier. `Compact()` is a member of `AnnotationStore` (declared in
/// annotation_store.h) but lives here with the rest of the rewrite
/// machinery.
///
/// The rewrite protocol, crash-safe at every phase:
///
///   1. quiesce   — take the commit lock and wait out the group-commit
///                  queue, so the index, checkpoints, and byte accounting
///                  are exactly in step with the log;
///   2. rewrite   — stream magic + every live annotation record
///                  (key-sorted, deterministic) + the latest checkpoint
///                  frame per audit id (id-sorted, copied from the old log
///                  after a CRC check) + a trailer frame sealing counts, the
///                  carried next_seq, and a chained CRC over every payload,
///                  into `<path>.compact` through a bounded buffer;
///   3. sync      — fsync the temp file (a rename may not reorder ahead of
///                  the data it installs);
///   4. rename    — atomically install the rewrite over the live path;
///   5. dirsync   — fsync the parent directory, making the rename itself
///                  durable (the same reason WAL creation syncs the parent:
///                  a crash may otherwise resurrect the old directory entry
///                  — the pre-compaction log — under a store that already
///                  acknowledged the rewrite);
///   6. swap      — close the old (now anonymous) file, reopen the WAL
///                  handle over the installed log, and move the checkpoint
///                  read descriptor and offsets onto it together.
///
/// A crash or injected failure in phases 1-4 leaves the old log installed
/// and untouched (the stale temp is deleted at the next `Open`); from phase
/// 5 on the new log is installed and complete, so the swap proceeds even
/// when the directory sync fails (the error is still reported — the rename
/// durability hole is real — but the store keeps running on the new log).
/// Failpoints cover each failable phase: `store.compact.write`,
/// `store.compact.sync`, `store.compact.rename`, `store.compact.dirsync`.

namespace kgacc {

namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

/// Splits the packed index key back into (cluster, offset) — the inverse
/// of `AnnotationStore::Key`.
constexpr uint64_t KeyCluster(uint64_t key) { return key >> 24; }
constexpr uint64_t KeyOffset(uint64_t key) {
  return key & ((uint64_t{1} << 24) - 1);
}

/// Bytes the rewrite buffers before each write to the temp file: what a
/// compaction holds in memory, however large the live set is.
constexpr size_t kRewriteBufferBytes = size_t{1} << 20;

Status WriteAll(int fd, std::span<const uint8_t> bytes,
                const std::string& path) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return IoError("cannot write compaction temp", path);
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status AnnotationStore::Compact() {
  std::unique_lock<std::mutex> lock(commit_mu_);
  // Phase 1: quiesce. New writers block enqueueing (they need commit_mu_);
  // an in-flight leader finishes its batch and drains the queue. This
  // predicate is sufficient only because the *leader* runs every batch
  // member's index apply under the lock before clearing `leader_active_`
  // (see CommitFrame): there is no window where a settled frame is in the
  // log but missing from the index, so the snapshot below is always
  // exactly in step with the log. Were apply deferred to each follower, a
  // settled-but-unapplied record could be silently dropped from the
  // rewrite here — durably written, acknowledged, and gone on restart.
  commit_cv_.wait(lock,
                  [&] { return !leader_active_ && commit_queue_.empty(); });
  if (!log_lost_.ok()) return log_lost_;

  // Snapshot the live label set, key-sorted so the rewrite is
  // deterministic (byte-identical across runs and thread counts).
  struct LiveRecord {
    uint64_t key;
    bool label;
  };
  std::vector<LiveRecord> live;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    shard.labeled.ForEach([&](uint64_t key) {
      live.push_back({key, shard.correct.contains(key)});
    });
  }
  std::sort(live.begin(), live.end(),
            [](const LiveRecord& a, const LiveRecord& b) {
              return a.key < b.key;
            });

  // Checkpoints are stable here (mutations run under commit_mu_): collect
  // the latest frame per audit, id-sorted. Each entry's offset is moved to
  // its place in the rewrite as the frame is copied.
  std::vector<std::pair<uint64_t, CheckpointEntry>> live_checkpoints(
      checkpoints_.begin(), checkpoints_.end());
  std::sort(live_checkpoints.begin(), live_checkpoints.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Tenant ledgers likewise: one live cumulative frame per tenant,
  // id-sorted for a deterministic rewrite. Stable under commit_mu_ for the
  // same reason checkpoints are (AppendTenantSpend applies under it).
  std::vector<const LedgerEntry*> live_ledgers;
  {
    std::lock_guard<std::mutex> ledger_lock(ledgers_mu_);
    live_ledgers.reserve(ledgers_.size());
    for (const LedgerEntry& entry : ledgers_) live_ledgers.push_back(&entry);
  }
  std::sort(live_ledgers.begin(), live_ledgers.end(),
            [](const LedgerEntry* a, const LedgerEntry* b) {
              return a->balance.tenant < b->balance.tenant;
            });

  const uint64_t bytes_before = file_bytes_;
  const uint64_t carried_next_seq = next_seq_.load(std::memory_order_relaxed);
  const std::string tmp = path_ + ".compact";

  // Phase 2: stream the rewrite into `fd`. Records carry audit id 0 (the
  // rewrite owns them) and fresh dense seqs; the pre-compaction next_seq
  // travels in the trailer so sequence numbers stay monotone across the
  // swap. Frames collect in `out` and spill to the file every
  // kRewriteBufferBytes.
  const auto rewrite = [&](int fd) -> Status {
    ByteWriter out;
    uint64_t spilled = 0;
    const auto spill = [&](size_t threshold) -> Status {
      if (out.size() < threshold) return Status::OK();
      KGACC_RETURN_IF_ERROR(WriteAll(fd, out.span(), tmp));
      spilled += out.size();
      out.Clear();
      return Status::OK();
    };
    out.PutBytes(walfmt::kMagic, walfmt::kMagicSize);
    Crc32cChain chain;
    ByteWriter payload;
    uint64_t seq = 0;
    for (const LiveRecord& record : live) {
      payload.Clear();
      payload.PutVarint(0);
      payload.PutVarint(seq++);
      payload.PutVarint(KeyCluster(record.key));
      payload.PutVarint(KeyOffset(record.key));
      payload.PutBool(record.label);
      chain.Extend(payload.span());
      walfmt::AppendFrame(&out, walfmt::kAnnotationFrame, payload.span());
      KGACC_RETURN_IF_ERROR(spill(kRewriteBufferBytes));
    }
    // A checkpoint frame is copied as it sits in the old log — the same
    // bytes re-encoding its snapshot would produce — once it reads back
    // intact.
    std::vector<uint8_t> frame;
    for (auto& [audit_id, entry] : live_checkpoints) {
      std::span<const uint8_t> frame_payload;
      KGACC_RETURN_IF_ERROR(
          ReadCheckpointFrame(audit_id, entry, &frame, &frame_payload)
              .status());
      chain.Extend(frame_payload);
      entry.frame_offset = spilled + out.size();
      out.PutBytes(frame.data(), frame.size());
      KGACC_RETURN_IF_ERROR(spill(kRewriteBufferBytes));
    }
    for (const LedgerEntry* entry : live_ledgers) {
      payload.Clear();
      payload.PutString(entry->balance.tenant);
      payload.PutVarint(entry->balance.oracle_spent);
      payload.PutVarint(entry->balance.store_bytes);
      chain.Extend(payload.span());
      walfmt::AppendFrame(&out, walfmt::kTenantLedgerFrame, payload.span());
    }
    payload.Clear();
    payload.PutVarint(2);  // Trailer version (2 = tenant-ledger count added).
    payload.PutVarint(live.size());
    payload.PutVarint(live_checkpoints.size());
    payload.PutVarint(live_ledgers.size());
    payload.PutVarint(carried_next_seq);
    payload.PutFixed32(chain.value());
    walfmt::AppendFrame(&out, walfmt::kCompactionTrailerFrame, payload.span());
    return spill(0);
  };

  // Phases 2-3: write and fsync the temp file. Any failure here deletes
  // the temp and leaves the old log the undisturbed source of truth.
  ::unlink(tmp.c_str());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("cannot create compaction temp", tmp);
  Status phase;
  if (FailpointHit("store.compact.write")) {
    phase = Status::IoError(
        "injected compaction write failure (failpoint store.compact.write)");
  } else {
    phase = rewrite(fd);
  }
  if (phase.ok()) {
    if (FailpointHit("store.compact.sync")) {
      phase = Status::IoError(
          "injected compaction fsync failure (failpoint store.compact.sync)");
    } else if (::fsync(fd) != 0) {
      phase = IoError("cannot fsync compaction temp", tmp);
    }
  }
  ::close(fd);
  if (!phase.ok()) {
    ::unlink(tmp.c_str());
    return phase;
  }

  // Phase 4: atomic install.
  if (FailpointHit("store.compact.rename")) {
    ::unlink(tmp.c_str());
    return Status::IoError(
        "injected compaction rename failure (failpoint store.compact.rename)");
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const Status status = IoError("cannot install compacted log over", path_);
    ::unlink(tmp.c_str());
    return status;
  }

  // Phase 5: make the rename durable. Past the rename there is no going
  // back — the new log is what the path names — so a dirsync failure is
  // reported but the swap below still proceeds.
  Status dirsync;
  if (FailpointHit("store.compact.dirsync")) {
    dirsync = Status::IoError(
        "injected compaction dirsync failure (failpoint "
        "store.compact.dirsync)");
  } else {
    dirsync = FsyncParentDir(path_);
  }

  // Phase 6: swap the live WAL handle onto the installed log. The old
  // handle points at the unlinked pre-compaction inode; appending there
  // would acknowledge frames no future Open can see.
  log_.reset();
  Result<std::unique_ptr<WriteAheadLog>> reopened =
      WriteAheadLog::Open(path_, nullptr);
  const int read_fd =
      reopened.ok() ? ::open(path_.c_str(), O_RDONLY | O_CLOEXEC) : -1;
  if (read_fd < 0) {
    // Should-not-happen (fd exhaustion class): the store has no log to
    // append to. Refuse every later write instead of losing labels.
    // Checkpoint reads keep the old descriptor and offsets, which still
    // agree with each other.
    const Status cause =
        reopened.ok() ? IoError("cannot open for reading", path_)
                      : reopened.status();
    log_lost_ = Status::IoError(
        "compaction installed a new log but could not reopen it: " +
        cause.ToString());
    return log_lost_;
  }
  log_ = std::move(*reopened);
  {
    std::lock_guard<std::mutex> checkpoints_lock(checkpoints_mu_);
    ::close(read_fd_);
    read_fd_ = read_fd;
    for (const auto& [audit_id, entry] : live_checkpoints) {
      checkpoints_[audit_id] = entry;
    }
  }
  file_bytes_ = log_->size_bytes();
  garbage_bytes_ = 0;
  ++compaction_stats_.compactions;
  compaction_stats_.last_bytes_before = bytes_before;
  compaction_stats_.last_bytes_after = file_bytes_;
  compaction_stats_.last_records = live.size();
  compaction_stats_.last_checkpoints = live_checkpoints.size();
  compaction_stats_.last_ledgers = live_ledgers.size();
  return dirsync;
}

Result<StoreVerifyInfo> VerifyStoreLog(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("cannot open store log", path);
  Result<LogReader> reader = LogReader::Open(fd, path);
  if (!reader.ok()) {
    ::close(fd);
    return reader.status();
  }
  const std::span<const uint8_t> data = reader->data();

  StoreVerifyInfo info;
  info.used_mmap = reader->mapped();
  if (data.size() < walfmt::kMagicSize ||
      std::memcmp(data.data(), walfmt::kMagic, walfmt::kMagicSize) != 0) {
    ::close(fd);
    return Status::IoError("'" + path +
                           "' is not a kgacc WAL (bad or truncated magic)");
  }

  Crc32cChain chain;
  uint64_t frames_before_trailer = 0;
  size_t valid_end = walfmt::kMagicSize;
  Status defect;
  while (valid_end < data.size()) {
    ByteReader frame(data.subspan(valid_end));
    const size_t frame_start_remaining = frame.remaining();
    const Result<uint8_t> type = frame.U8();
    if (!type.ok()) break;
    const Result<uint64_t> len = frame.Varint();
    if (!len.ok() || *len > walfmt::kMaxPayloadBytes) break;
    const Result<std::span<const uint8_t>> payload = frame.Bytes(*len);
    if (!payload.ok()) break;
    const Result<uint32_t> stored_crc = frame.Fixed32();
    if (!stored_crc.ok()) break;
    const size_t covered = frame_start_remaining - frame.remaining() - 4;
    if (Crc32c(data.data() + valid_end, covered) != *stored_crc) break;

    // The frame is intact; its payload must now decode. A valid CRC over
    // garbage is a writer bug, not bit rot — report it as a defect.
    ByteReader body(*payload);
    switch (*type) {
      case walfmt::kAnnotationFrame: {
        Status decode;
        for (int field = 0; field < 4 && decode.ok(); ++field) {
          decode = body.Varint().status();
        }
        if (decode.ok()) decode = body.Bool().status();
        if (!decode.ok()) {
          defect = Status::IoError(
              "store log: annotation frame with valid CRC fails to decode");
        }
        ++info.records;
        break;
      }
      case walfmt::kCheckpointFrame: {
        Status decode = body.Varint().status();
        if (decode.ok()) decode = body.LengthPrefixed().status();
        if (!decode.ok()) {
          defect = Status::IoError(
              "store log: checkpoint frame with valid CRC fails to decode");
        }
        ++info.checkpoints;
        break;
      }
      case walfmt::kTenantLedgerFrame: {
        Status decode = body.String().status();
        if (decode.ok()) decode = body.Varint().status();
        if (decode.ok()) decode = body.Varint().status();
        if (!decode.ok()) {
          defect = Status::IoError(
              "store log: tenant ledger frame with valid CRC fails to decode");
        }
        ++info.ledgers;
        break;
      }
      case walfmt::kCompactionTrailerFrame: {
        const Result<uint64_t> version = body.Varint();
        const Result<uint64_t> records = body.Varint();
        const Result<uint64_t> checkpoints = body.Varint();
        // v2 inserts the tenant-ledger count here; v1 predates ledgers.
        Result<uint64_t> ledgers(uint64_t{0});
        if (version.ok() && *version >= 2) ledgers = body.Varint();
        const Result<uint64_t> next_seq = body.Varint();
        const Result<uint32_t> live_crc = body.Fixed32();
        if (!version.ok() || !records.ok() || !checkpoints.ok() ||
            !ledgers.ok() || !next_seq.ok() || !live_crc.ok() ||
            (*version != 1 && *version != 2)) {
          defect = Status::IoError(
              "store log: malformed compaction trailer frame");
        } else if (*records + *checkpoints + *ledgers !=
                       frames_before_trailer ||
                   *records != info.records ||
                   *checkpoints != info.checkpoints ||
                   *ledgers != info.ledgers) {
          defect = Status::IoError(
              "store log: compaction trailer frame counts disagree with the "
              "rewritten log");
        } else if (*live_crc != chain.value()) {
          defect = Status::IoError(
              "store log: compaction trailer live-CRC mismatch (rewritten "
              "log corrupted)");
        } else {
          info.compacted = true;
        }
        ++info.trailers;
        break;
      }
      default:
        defect = Status::IoError("store log: unknown WAL frame type " +
                                 std::to_string(int(*type)));
        break;
    }
    if (!defect.ok()) break;
    chain.Extend(*payload);
    ++frames_before_trailer;
    valid_end += covered + 4;
  }
  ::close(fd);
  if (!defect.ok()) return defect;

  info.bytes_valid = valid_end;
  info.bytes_torn = data.size() - valid_end;
  info.clean_tail = info.bytes_torn == 0;
  return info;
}

}  // namespace kgacc
