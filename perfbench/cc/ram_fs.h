// An in-process, RAM-backed FileSystem for the durable stores the
// benchmark writes. It keeps the stores off the shared disk, so fleet and
// corpus timings measure the journal, snapshot and corpus code rather
// than the disk, and the benchmark writes nothing outside its checkout.
// Sync and SyncDir are no-ops, as on tmpfs, and an append never moves the
// bytes already written, as tmpfs's page-granular files do not.

#ifndef PERFBENCH_RAM_FS_H_
#define PERFBENCH_RAM_FS_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "io/file.h"

namespace perfbench {

class RamFileSystem : public dievent::FileSystem {
 public:
  dievent::Result<std::unique_ptr<dievent::WritableFile>> OpenForAppend(
      const std::string& path) override;
  dievent::Result<std::unique_ptr<dievent::WritableFile>> OpenForWrite(
      const std::string& path) override;
  dievent::Result<std::string> ReadFile(const std::string& path) override;
  dievent::Result<uint64_t> FileSize(const std::string& path) override;
  dievent::Status Rename(const std::string& from,
                         const std::string& to) override;
  dievent::Status Remove(const std::string& path) override;
  dievent::Status RemoveDir(const std::string& path) override;
  dievent::Status Truncate(const std::string& path, uint64_t size) override;
  dievent::Status CreateDir(const std::string& path) override;
  bool Exists(const std::string& path) override;
  dievent::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  dievent::Status SyncDir(const std::string& dir) override;

 private:
  friend class RamWritableFile;
  /// A file's bytes with their own lock, so appends to different files
  /// (one journal per tenant) never contend. The bytes live in blocks of
  /// fixed capacity: a growing journal is never copied whole, which would
  /// put the benchmark's own memcpy into the commit-gap tail.
  struct File {
    std::mutex mu;
    std::vector<std::string> blocks;
    uint64_t size = 0;

    void Append(std::string_view bytes);
    std::string Read() const;
    void Resize(uint64_t new_size);
  };
  using Data = std::shared_ptr<File>;

  dievent::Result<std::unique_ptr<dievent::WritableFile>> Open(
      const std::string& path, bool truncate);
  bool ParentExistsLocked(const std::string& path) const;

  std::mutex mu_;  ///< guards the maps; taken before any File::mu
  std::map<std::string, Data> files_;
  std::set<std::string> dirs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RAM_FS_H_
