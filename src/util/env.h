// Pluggable file-system abstraction for everything humdex persists. All
// storage code (qbh/storage, music/melody_io, audio/wav_io) performs file
// I/O through an Env, so tests can swap in FaultInjectingEnv and exercise
// disk failures, torn writes, and crashes that are impossible to stage
// reliably against a real file system.
//
// The write path is crash-safe by construction: AtomicWriteFile stages the
// bytes in a temp file, fsyncs it, and renames it over the destination, so a
// crash at any point leaves either the complete old file or the complete new
// file — never a prefix of the new one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace humdex {

/// An immutable byte range backing a loaded file: either a real mmap(2)
/// region (released on destruction) or a page-aligned owned buffer the bytes
/// were read into — the fallback every Env can provide, and the form fault
/// injection and sanitizer builds exercise. Move-only. The v3 binary storage
/// layer decodes its sections straight out of one; the opened system keeps
/// nothing that points into it.
class MemorySource {
 public:
  MemorySource() = default;
  ~MemorySource();
  MemorySource(const MemorySource&) = delete;
  MemorySource& operator=(const MemorySource&) = delete;
  MemorySource(MemorySource&& other) noexcept;
  MemorySource& operator=(MemorySource&& other) noexcept;

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::string_view view() const { return {data_, size_}; }
  bool empty() const { return size_ == 0; }
  /// True when backed by a real file mapping (false: owned buffer).
  bool mapped() const { return kind_ == Kind::kMapped; }

  /// Owned buffer of `size` bytes, zero-initialized and aligned to a 4096
  /// page so in-file alignment guarantees survive the read-into-buffer
  /// fallback. Writable through mutable_data() (owned sources only).
  static MemorySource AllocateOwned(std::size_t size);
  char* mutable_data();

  /// Adopt an mmap'd region; munmap'd on destruction. `addr` may be null
  /// only when `len` is 0.
  static MemorySource AdoptMapping(void* addr, std::size_t len);

 private:
  enum class Kind { kEmpty, kOwned, kMapped };

  void Release();

  Kind kind_ = Kind::kEmpty;
  char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t map_len_ = 0;  // munmap length (kMapped only)
};

/// A file open for appending — the write-ahead log's primitive. Unlike
/// AtomicWriteFile, an append is durable only after Sync() returns OK; a
/// crash in between may leave any prefix of the appended bytes on disk (a
/// torn record), which the log's per-record framing must detect on recovery.
class AppendableFile {
 public:
  virtual ~AppendableFile() = default;

  /// Buffer `data` at the end of the file.
  virtual Status Append(std::string_view data) = 0;

  /// Flush buffers and fsync: everything appended so far is durable.
  virtual Status Sync() = 0;

  /// Close the handle. Appends after Close are an error.
  virtual Status Close() = 0;
};

/// Minimal file-system interface. Implementations must be safe to call from
/// multiple threads on distinct paths; concurrent writers of the *same* path
/// get last-rename-wins semantics.
class Env {
 public:
  virtual ~Env() = default;

  /// Read the whole file into `*out` (cleared first). A missing file is
  /// kNotFound; a read that fails mid-way is kIoError — a truncated read is
  /// never silently returned as success.
  virtual Status ReadFile(const std::string& path, std::string* out) = 0;

  /// Durably replace `path` with `data`: temp file + fsync + rename. On any
  /// failure the previous file content is untouched.
  virtual Status AtomicWriteFile(const std::string& path,
                                 const std::string& data) = 0;

  /// Open `path` for appending, creating it when missing. Existing content
  /// is preserved.
  virtual Status NewAppendableFile(const std::string& path,
                                   std::unique_ptr<AppendableFile>* out) = 0;

  virtual bool Exists(const std::string& path) = 0;

  /// Remove a file. Deleting a missing file is kNotFound.
  virtual Status Delete(const std::string& path) = 0;

  /// Size of an existing file in bytes. A missing file is kNotFound.
  virtual Status FileSize(const std::string& path, std::uint64_t* size) = 0;

  /// Read exactly [offset, offset + len) into caller storage `out`. A read
  /// that cannot deliver all `len` bytes (EOF, I/O error) is kIoError — a
  /// short range is never silently returned as success. len == 0 is a no-op.
  /// Together with FileSize this lets loaders read straight into their final
  /// buffer instead of double-buffering the whole file through a string.
  virtual Status ReadFileRange(const std::string& path, std::uint64_t offset,
                               std::size_t len, char* out) = 0;

  /// Make a whole file's bytes available as one immutable MemorySource. The
  /// base implementation reads it into a page-aligned owned buffer via
  /// FileSize + ReadFileRange — so FaultInjectingEnv and sanitizer builds
  /// exercise every failure path of the read route — while PosixEnv maps the
  /// file with mmap(2) (set HUMDEX_NO_MMAP to force the buffer fallback).
  virtual Status MapFile(const std::string& path, MemorySource* out);

  /// The process-wide PosixEnv. Storage APIs use it when no Env is given.
  static Env* Default();
};

/// The real file system via C stdio + POSIX fsync/rename.
class PosixEnv : public Env {
 public:
  Status ReadFile(const std::string& path, std::string* out) override;
  Status AtomicWriteFile(const std::string& path,
                         const std::string& data) override;
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<AppendableFile>* out) override;
  bool Exists(const std::string& path) override;
  Status Delete(const std::string& path) override;
  Status FileSize(const std::string& path, std::uint64_t* size) override;
  Status ReadFileRange(const std::string& path, std::uint64_t offset,
                       std::size_t len, char* out) override;
  Status MapFile(const std::string& path, MemorySource* out) override;
};

/// Test double that delegates to a base Env but injects faults at
/// deterministic, seedable points. Reads can fail outright, fail
/// transiently, or come back truncated; AtomicWriteFile can "crash" at each
/// step of its pipeline (open temp / write body / fsync / rename), leaving
/// exactly the debris a real crash would: an absent, short, or complete temp
/// file — and the destination always untouched. Every injected fault
/// increments the `io.faults_injected` registry counter.
class FaultInjectingEnv : public Env {
 public:
  /// Steps of the atomic-write pipeline, in execution order. A crash at step
  /// S means every step before S completed and nothing at or after S ran.
  enum class WriteStep {
    kOpenTemp = 0,   ///< crash before the temp file exists
    kWriteBody = 1,  ///< crash mid-write: temp holds a torn prefix
    kSync = 2,       ///< crash before fsync: temp complete but not durable
    kRename = 3,     ///< crash before rename: temp durable, dest still old
  };
  static constexpr int kWriteStepCount = 4;

  explicit FaultInjectingEnv(Env* base = Env::Default()) : base_(base) {}

  /// Fail the next `n` ReadFile calls with kIoError (a transient disk
  /// hiccup: the retry layer should absorb these).
  void FailNextReads(int n) { read_failures_pending_ = n; }

  /// Deterministically fail every read whose 0-based sequence number
  /// satisfies `seq % period == phase`. period == 0 disables.
  void FailReadsPeriodically(std::uint64_t period, std::uint64_t phase) {
    read_fail_period_ = period;
    read_fail_phase_ = phase;
  }

  /// Fail each read with probability 1/denominator, drawn from a seeded
  /// deterministic stream (same seed => same fault sequence). 0 disables.
  void FailReadsRandomly(std::uint64_t seed, std::uint32_t denominator);

  /// The next read returns only the first `bytes` bytes with an OK status —
  /// the silent-truncation bug a missing ferror check lets through. Parsers
  /// must catch this via their own framing (e.g. the v2 CRC trailer).
  void TruncateNextRead(std::size_t bytes) {
    truncate_next_read_ = true;
    truncate_to_ = bytes;
  }

  /// The next ReadFile fails as if open(2) failed on an existing file.
  void FailNextOpen() { open_failure_pending_ = true; }

  /// Crash the next AtomicWriteFile at `step`. For kWriteBody, `torn_bytes`
  /// of the body land in the temp file first.
  void CrashNextWriteAt(WriteStep step, std::size_t torn_bytes = 0) {
    crash_pending_ = true;
    crash_step_ = step;
    crash_torn_bytes_ = torn_bytes;
  }

  /// The next AtomicWriteFile writes only `bytes` of the body but otherwise
  /// completes (short write that goes undetected until load).
  void ShortNextWrite(std::size_t bytes) {
    short_write_pending_ = true;
    short_write_bytes_ = bytes;
  }

  /// Crash the next AppendableFile::Append mid-record: only the first
  /// `torn_bytes` of the data reach the file (durably — exactly the debris a
  /// power cut leaves), the call fails, and the handle is dead from then on
  /// (every later Append/Sync fails, as after a real crash). `torn_bytes` may
  /// equal or exceed the record size: the record lands complete but the
  /// "process" still dies before acknowledging it.
  void CrashNextAppendAt(std::size_t torn_bytes) {
    append_crash_pending_ = true;
    append_crash_torn_bytes_ = torn_bytes;
  }

  /// The next AppendableFile::Sync fails and kills the handle (a failed
  /// fsync means unknown durability; the file must be considered lost).
  void FailNextSync() { sync_failure_pending_ = true; }

  /// The next Delete fails with kIoError and deletes nothing (models a crash
  /// between a checkpoint's rename and the log truncation).
  void FailNextDelete() { delete_failure_pending_ = true; }

  void ClearFaults();

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t appends() const { return appends_; }
  std::uint64_t faults_injected() const { return faults_injected_; }

  Status ReadFile(const std::string& path, std::string* out) override;
  Status AtomicWriteFile(const std::string& path,
                         const std::string& data) override;
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<AppendableFile>* out) override;
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  Status Delete(const std::string& path) override;
  Status FileSize(const std::string& path, std::uint64_t* size) override;
  /// Range reads share ReadFile's fault schedule (each counts as one read;
  /// FailNextReads / periodic / random faults apply). TruncateNextRead
  /// models silent truncation: only the prefix is written, the tail stays as
  /// the caller left it, and the call still returns OK.
  Status ReadFileRange(const std::string& path, std::uint64_t offset,
                       std::size_t len, char* out) override;
  // MapFile is inherited from Env: it routes through this env's FileSize and
  // ReadFileRange overrides, so mapped opens see every injected fault.

 private:
  friend class FaultInjectingAppendableFile;

  void NoteFault();

  Env* base_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t faults_injected_ = 0;

  int read_failures_pending_ = 0;
  std::uint64_t read_fail_period_ = 0;
  std::uint64_t read_fail_phase_ = 0;
  std::uint64_t random_state_ = 0;  // simple seeded LCG stream; 0 = off
  std::uint32_t random_denominator_ = 0;
  bool truncate_next_read_ = false;
  std::size_t truncate_to_ = 0;
  bool open_failure_pending_ = false;

  bool crash_pending_ = false;
  WriteStep crash_step_ = WriteStep::kOpenTemp;
  std::size_t crash_torn_bytes_ = 0;
  bool short_write_pending_ = false;
  std::size_t short_write_bytes_ = 0;

  std::uint64_t appends_ = 0;
  bool append_crash_pending_ = false;
  std::size_t append_crash_torn_bytes_ = 0;
  bool sync_failure_pending_ = false;
  bool delete_failure_pending_ = false;
};

}  // namespace humdex
