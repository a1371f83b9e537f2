#include "ram_fs.h"

#include <algorithm>
#include <utility>

namespace perfbench {

using dievent::Result;
using dievent::Status;
using dievent::WritableFile;

namespace {

constexpr size_t kBlockBytes = 16 << 10;

std::string Parent(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

void RamFileSystem::File::Append(std::string_view bytes) {
  size += bytes.size();
  while (!bytes.empty()) {
    if (blocks.empty() || blocks.back().size() == kBlockBytes) {
      blocks.emplace_back().reserve(kBlockBytes);
    }
    std::string& block = blocks.back();
    const size_t take = std::min(kBlockBytes - block.size(), bytes.size());
    block.append(bytes.substr(0, take));
    bytes.remove_prefix(take);
  }
}

std::string RamFileSystem::File::Read() const {
  std::string out;
  out.reserve(size);
  for (const std::string& block : blocks) out += block;
  return out;
}

void RamFileSystem::File::Resize(uint64_t new_size) {
  if (new_size >= size) {
    Append(std::string(new_size - size, '\0'));
    return;
  }
  size = new_size;
  const size_t keep = (new_size + kBlockBytes - 1) / kBlockBytes;
  blocks.resize(keep);
  if (keep > 0) blocks.back().resize(new_size - (keep - 1) * kBlockBytes);
}

class RamWritableFile : public WritableFile {
 public:
  explicit RamWritableFile(RamFileSystem::Data data)
      : data_(std::move(data)) {}

  Status Append(std::string_view bytes) override {
    if (data_ == nullptr) return Status::IoError("append after close");
    std::lock_guard<std::mutex> lock(data_->mu);
    data_->Append(bytes);
    return Status::OK();
  }
  Status Sync() override {
    return data_ == nullptr ? Status::IoError("sync after close")
                            : Status::OK();
  }
  Status Close() override {
    data_.reset();
    return Status::OK();
  }

 private:
  RamFileSystem::Data data_;
};

bool RamFileSystem::ParentExistsLocked(const std::string& path) const {
  const std::string parent = Parent(path);
  return parent.empty() || dirs_.count(parent) > 0;
}

Result<std::unique_ptr<WritableFile>> RamFileSystem::Open(
    const std::string& path, bool truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ParentExistsLocked(path)) return Status::NotFound("no dir: " + path);
  Data& data = files_[path];
  if (data == nullptr) data = std::make_shared<File>();
  if (truncate) {
    std::lock_guard<std::mutex> file_lock(data->mu);
    data->Resize(0);
  }
  return std::unique_ptr<WritableFile>(new RamWritableFile(data));
}

Result<std::unique_ptr<WritableFile>> RamFileSystem::OpenForAppend(
    const std::string& path) {
  return Open(path, /*truncate=*/false);
}

Result<std::unique_ptr<WritableFile>> RamFileSystem::OpenForWrite(
    const std::string& path) {
  return Open(path, /*truncate=*/true);
}

Result<std::string> RamFileSystem::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file: " + path);
  std::lock_guard<std::mutex> file_lock(it->second->mu);
  return it->second->Read();
}

Result<uint64_t> RamFileSystem::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file: " + path);
  std::lock_guard<std::mutex> file_lock(it->second->mu);
  return it->second->size;
}

Status RamFileSystem::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no file: " + from);
  if (!ParentExistsLocked(to)) return Status::NotFound("no dir: " + to);
  Data data = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(data);
  return Status::OK();
}

Status RamFileSystem::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.erase(path) > 0 ? Status::OK()
                                : Status::NotFound("no file: " + path);
}

Status RamFileSystem::RemoveDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string prefix = path + "/";
  auto file = files_.lower_bound(prefix);
  auto dir = dirs_.upper_bound(path);
  if ((file != files_.end() && file->first.compare(0, prefix.size(),
                                                   prefix) == 0) ||
      (dir != dirs_.end() && dir->compare(0, prefix.size(), prefix) == 0)) {
    return Status::FailedPrecondition("dir not empty: " + path);
  }
  return dirs_.erase(path) > 0 ? Status::OK()
                               : Status::NotFound("no dir: " + path);
}

Status RamFileSystem::Truncate(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file: " + path);
  std::lock_guard<std::mutex> file_lock(it->second->mu);
  it->second->Resize(size);
  return Status::OK();
}

Status RamFileSystem::CreateDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') dirs_.insert(path.substr(0, i));
  }
  return Status::OK();
}

bool RamFileSystem::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

Result<std::vector<std::string>> RamFileSystem::ListDir(
    const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(dir) == 0) return Status::NotFound("no dir: " + dir);
  const std::string prefix = dir + "/";
  std::set<std::string> names;
  auto collect = [&](const std::string& path) {
    if (path.compare(0, prefix.size(), prefix) != 0) return false;
    const std::string rest = path.substr(prefix.size());
    if (!rest.empty() && rest.find('/') == std::string::npos) {
      names.insert(rest);
    }
    return true;
  };
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && collect(it->first); ++it) {
  }
  for (auto it = dirs_.lower_bound(prefix);
       it != dirs_.end() && collect(*it); ++it) {
  }
  return std::vector<std::string>(names.begin(), names.end());
}

Status RamFileSystem::SyncDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  return dirs_.count(dir) > 0 ? Status::OK()
                              : Status::NotFound("no dir: " + dir);
}

}  // namespace perfbench
