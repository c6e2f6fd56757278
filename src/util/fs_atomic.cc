#include "util/fs_atomic.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/logging.hh"

namespace geo {
namespace util {

namespace {

/** Directory part of a path ("." when there is no separator). */
std::string
dirOf(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

/** fsync a directory so a rename inside it is durable. */
void
syncDir(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return; // best effort: some filesystems refuse O_DIRECTORY
    ::fsync(fd);
    ::close(fd);
}

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &content)
{
    // The temp file must live in the destination directory: rename()
    // is only atomic within one filesystem.
    std::string tmp = path + ".tmp.XXXXXX";
    std::vector<char> buf(tmp.begin(), tmp.end());
    buf.push_back('\0');
    int fd = ::mkstemp(buf.data());
    if (fd < 0) {
        warn("writeFileAtomic: mkstemp for %s: %s", path.c_str(),
             std::strerror(errno));
        return false;
    }
    tmp.assign(buf.data());

    bool ok = true;
    const char *data = content.data();
    size_t remaining = content.size();
    while (remaining > 0) {
        ssize_t written = ::write(fd, data, remaining);
        if (written < 0) {
            if (errno == EINTR)
                continue;
            warn("writeFileAtomic: write %s: %s", tmp.c_str(),
                 std::strerror(errno));
            ok = false;
            break;
        }
        data += written;
        remaining -= static_cast<size_t>(written);
    }
    if (ok && ::fsync(fd) != 0) {
        warn("writeFileAtomic: fsync %s: %s", tmp.c_str(),
             std::strerror(errno));
        ok = false;
    }
    ::close(fd);

    if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("writeFileAtomic: rename %s -> %s: %s", tmp.c_str(),
             path.c_str(), std::strerror(errno));
        ok = false;
    }
    if (!ok) {
        ::unlink(tmp.c_str());
        return false;
    }
    syncDir(dirOf(path));
    return true;
}

bool
appendFileDurable(const std::string &path, const char *data, size_t len,
                  uint64_t expected_size)
{
    // No O_CREAT: an append is only meaningful onto the file this
    // caller has already written; a missing file means the history is
    // gone and the caller must rewrite it whole.
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0)
        return false;
    struct stat st{};
    if (::fstat(fd, &st) != 0 ||
        static_cast<uint64_t>(st.st_size) != expected_size) {
        ::close(fd);
        return false;
    }
    bool ok = true;
    size_t remaining = len;
    while (remaining > 0) {
        ssize_t written = ::write(fd, data, remaining);
        if (written < 0) {
            if (errno == EINTR)
                continue;
            warn("appendFileDurable: write %s: %s", path.c_str(),
                 std::strerror(errno));
            ok = false;
            break;
        }
        data += written;
        remaining -= static_cast<size_t>(written);
    }
    if (ok && ::fsync(fd) != 0) {
        warn("appendFileDurable: fsync %s: %s", path.c_str(),
             std::strerror(errno));
        ok = false;
    }
    ::close(fd);
    return ok;
}

bool
readFileAll(const std::string &path, std::string &out)
{
    // One payload-sized buffer, sized from the file and read into.
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return false;
    }
    std::string data(static_cast<size_t>(st.st_size), '\0');
    size_t have = 0;
    char spill[4096]; // past the size fstat saw: the file grew
    for (;;) {
        bool inside = have < data.size();
        char *dst = inside ? &data[have] : spill;
        size_t room = inside ? data.size() - have : sizeof spill;
        ssize_t got = ::read(fd, dst, room);
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0) {
            ::close(fd);
            return false;
        }
        if (got == 0)
            break;
        if (!inside)
            data.append(spill, static_cast<size_t>(got));
        have += static_cast<size_t>(got);
    }
    ::close(fd);
    data.resize(have); // the file shrank
    out = std::move(data);
    return true;
}

} // namespace util
} // namespace geo
