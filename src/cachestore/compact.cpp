#include "cachestore/compact.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "cachestore/log.hpp"
#include "common/failpoint.hpp"

namespace cosa {
namespace cachestore {

std::string
compactionTempPath(const std::string& log_path)
{
    return log_path + ".tmp";
}

StatusOr<std::uint64_t>
compactShardFile(const std::string& log_path, std::uint32_t shard_index,
                 std::uint32_t num_shards,
                 const std::vector<std::string>& payloads)
{
    const std::string tmp_path = compactionTempPath(log_path);
    LogWriter writer;
    // Batch mode: one fsync for the whole generation (below), not one
    // per record — the generation only becomes real at the rename.
    Status opened = writer.openTruncated(tmp_path, shard_index,
                                         num_shards,
                                         /*fsync_each_append=*/false);
    if (!opened.ok())
        return opened;
    Status written = Status::Ok();
    try {
        for (const std::string& payload : payloads) {
            // Simulated mid-write crash for chaos tests.
            COSA_FAILPOINT("cache.save_write", ErrorCode::kIoError);
            written = writer.append(payload);
            if (!written.ok())
                break;
        }
    } catch (const CosaError& e) {
        written = e.status();
    }
    if (written.ok())
        written = writer.sync();
    if (!written.ok()) {
        writer.close();
        std::remove(tmp_path.c_str());
        return written;
    }
    const std::uint64_t bytes = writer.bytes();
    writer.close();
    if (std::rename(tmp_path.c_str(), log_path.c_str()) != 0) {
        const Status status{ErrorCode::kIoError,
                            "cachestore: rename " + tmp_path + " -> " +
                                log_path + " failed: " +
                                std::strerror(errno)};
        std::remove(tmp_path.c_str());
        return status;
    }
    return bytes;
}

} // namespace cachestore
} // namespace cosa
