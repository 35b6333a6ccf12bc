#include "common/serialize.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/obs.h"

namespace hwpr
{

namespace
{

constexpr std::uint64_t kMagic = 0x485750524e415331ull; // "HWPRNAS1"

/**
 * Sanity bound on serialized container sizes (corruption guard):
 * 2^26 doubles = 512 MiB, far above any legitimate checkpoint field
 * but small enough that a corrupt length prefix cannot drive a
 * multi-GiB allocation.
 */
constexpr std::uint64_t kMaxElements = 1ull << 26;

/** Strings are kinds, names and RNG state text — 1 MiB is generous. */
constexpr std::uint64_t kMaxStringBytes = 1ull << 20;

/** Footer magic ("HWPRCRCF") closing every atomicSave checkpoint. */
constexpr std::uint64_t kFooterMagic = 0x4857505243524346ull;

/** Footer layout: [u64 body length][u64 crc32][u64 footer magic]. */
constexpr std::size_t kFooterBytes = 3 * sizeof(std::uint64_t);

} // namespace

void
BinaryWriter::writeU64(std::uint64_t v)
{
    out_.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
BinaryWriter::writeI64(std::int64_t v)
{
    out_.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
BinaryWriter::writeDouble(double v)
{
    out_.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
BinaryWriter::writeString(const std::string &s)
{
    writeU64(s.size());
    out_.write(s.data(), std::streamsize(s.size()));
}

void
BinaryWriter::writeDoubles(const std::vector<double> &v)
{
    writeU64(v.size());
    out_.write(reinterpret_cast<const char *>(v.data()),
               std::streamsize(v.size() * sizeof(double)));
}

void
BinaryWriter::writeMatrix(const Matrix &m)
{
    writeU64(m.rows());
    writeU64(m.cols());
    out_.write(reinterpret_cast<const char *>(m.data()),
               std::streamsize(m.size() * sizeof(double)));
}

std::uint64_t
BinaryReader::readU64()
{
    std::uint64_t v = 0;
    in_.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!in_.good())
        ok_ = false;
    return v;
}

std::int64_t
BinaryReader::readI64()
{
    std::int64_t v = 0;
    in_.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!in_.good())
        ok_ = false;
    return v;
}

double
BinaryReader::readDouble()
{
    double v = 0.0;
    in_.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!in_.good())
        ok_ = false;
    return v;
}

std::string
BinaryReader::readString()
{
    const std::uint64_t n = readU64();
    if (!ok_ || n > kMaxStringBytes) {
        ok_ = false;
        return {};
    }
    std::string s(n, '\0');
    in_.read(s.data(), std::streamsize(n));
    if (!in_.good())
        ok_ = false;
    return s;
}

std::vector<double>
BinaryReader::readDoubles()
{
    const std::uint64_t n = readU64();
    if (!ok_ || n > kMaxElements) {
        ok_ = false;
        return {};
    }
    std::vector<double> v(n);
    in_.read(reinterpret_cast<char *>(v.data()),
             std::streamsize(n * sizeof(double)));
    if (!in_.good())
        ok_ = false;
    return v;
}

Matrix
BinaryReader::readMatrix()
{
    const std::uint64_t rows = readU64();
    const std::uint64_t cols = readU64();
    // Bound each dimension before the product: `rows * cols` wraps for
    // adversarial headers (e.g. 2^33 x 2^33) and would sail past the
    // element bound.
    if (!ok_ || rows > kMaxElements || cols > kMaxElements ||
        (rows != 0 && cols > kMaxElements / rows)) {
        ok_ = false;
        return Matrix();
    }
    Matrix m(rows, cols);
    in_.read(reinterpret_cast<char *>(m.data()),
             std::streamsize(rows * cols * sizeof(double)));
    if (!in_.good())
        ok_ = false;
    return m;
}

void
writeHeader(BinaryWriter &w, const std::string &kind,
            std::uint32_t version)
{
    w.writeU64(kMagic);
    w.writeString(kind);
    w.writeU64(version);
}

std::uint32_t
readHeader(BinaryReader &r, const std::string &kind)
{
    if (r.readU64() != kMagic)
        return 0;
    if (r.readString() != kind)
        return 0;
    const std::uint64_t version = r.readU64();
    if (!r.ok())
        return 0;
    return std::uint32_t(version);
}

namespace
{

/** CRC-32 lookup table for the reflected IEEE polynomial. */
const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

std::uint64_t
loadU64(const char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

void
countCorrupt()
{
    if (!obs::metricsEnabled())
        return;
    static obs::Counter &rejected =
        obs::Registry::global().counter("checkpoint.corrupt_rejected");
    rejected.add();
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    const auto &table = crcTable();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

bool
atomicSave(const std::string &path,
           const std::function<void(BinaryWriter &)> &body)
{
    obs::Span span("checkpoint.save");
    static obs::Counter &saves =
        obs::Registry::global().counter("checkpoint.saves");
    static obs::Counter &failures =
        obs::Registry::global().counter("checkpoint.save_failures");

    std::ostringstream buf(std::ios::binary);
    BinaryWriter w(buf);
    body(w);
    if (!w.ok()) {
        if (obs::metricsEnabled())
            failures.add();
        return false;
    }

    // Footer: body length + CRC32 over the body + closing magic.
    const std::string data = buf.str();
    w.writeU64(data.size());
    w.writeU64(crc32(data.data(), data.size()));
    w.writeU64(kFooterMagic);
    const std::string full = buf.str();
    span.arg("bytes", double(full.size()));

    const std::string tmp = path + ".tmp";
    auto fail = [&](int fd) {
        if (fd >= 0)
            ::close(fd);
        ::unlink(tmp.c_str());
        if (obs::metricsEnabled())
            failures.add();
        return false;
    };

    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        return fail(fd);
    std::size_t written = 0;
    while (written < full.size()) {
        const ssize_t n = ::write(fd, full.data() + written,
                                  full.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return fail(fd);
        }
        written += std::size_t(n);
    }
    if (::fsync(fd) != 0)
        return fail(fd);
    if (::close(fd) != 0)
        return fail(-1);
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        return fail(-1);

    // Persist the rename itself: fsync the containing directory.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    if (obs::metricsEnabled())
        saves.add();
    return true;
}

bool
readVerified(const std::string &path, std::string &body)
{
    obs::Span span("checkpoint.load");
    static obs::Counter &loads =
        obs::Registry::global().counter("checkpoint.loads");
    body.clear();

    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return false;
    std::ostringstream buf(std::ios::binary);
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
        countCorrupt();
        return false;
    }
    std::string bytes = std::move(buf).str();
    span.arg("bytes", double(bytes.size()));
    if (bytes.size() < kFooterBytes) {
        countCorrupt();
        return false;
    }

    const char *footer = bytes.data() + bytes.size() - kFooterBytes;
    const std::uint64_t length = loadU64(footer);
    const std::uint64_t crc = loadU64(footer + 8);
    const std::uint64_t magic = loadU64(footer + 16);
    if (magic != kFooterMagic ||
        length != bytes.size() - kFooterBytes) {
        countCorrupt();
        return false;
    }
    {
        obs::Span verify("checkpoint.verify");
        verify.arg("bytes", double(length));
        if (crc32(bytes.data(), std::size_t(length)) != crc) {
            countCorrupt();
            return false;
        }
    }
    bytes.resize(std::size_t(length));
    body = std::move(bytes);
    if (obs::metricsEnabled())
        loads.add();
    return true;
}

std::string
checkpointKind(const std::string &path)
{
    std::string body;
    return readVerified(path, body) ? checkpointKindOf(body) : "";
}

std::string
checkpointKindOf(const std::string &body)
{
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (r.readU64() != kMagic)
        return {};
    std::string kind = r.readString();
    return r.ok() ? kind : std::string{};
}

} // namespace hwpr
