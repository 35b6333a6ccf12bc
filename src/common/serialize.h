/**
 * @file
 * Minimal binary serialization primitives used for model and search
 * checkpointing: little-endian fixed-width integers, doubles, strings
 * and matrices, wrapped in a magic/version header with corruption
 * checks.
 *
 * Fault tolerance. Checkpoints are written through atomicSave():
 * the body is assembled in memory, a CRC32 footer is appended, and the
 * bytes land on disk via temp file + fsync + rename (+ directory
 * fsync), so a crash at any instant leaves either the previous
 * checkpoint or the new one — never a torn file. readVerified() is the
 * matching loader: it rejects any file whose footer magic, length or
 * CRC does not check out, so truncation, bit flips and short reads
 * surface as a clean `false` before any parsing happens.
 */

#ifndef HWPR_COMMON_SERIALIZE_H
#define HWPR_COMMON_SERIALIZE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/matrix.h"

namespace hwpr
{

/** Binary writer over an ostream. */
class BinaryWriter
{
  public:
    explicit BinaryWriter(std::ostream &out) : out_(out) {}

    void writeU64(std::uint64_t v);
    void writeI64(std::int64_t v);
    void writeDouble(double v);
    void writeString(const std::string &s);
    void writeDoubles(const std::vector<double> &v);
    void writeMatrix(const Matrix &m);

    bool ok() const { return out_.good(); }

  private:
    std::ostream &out_;
};

/** Binary reader over an istream; read failures set ok() false. */
class BinaryReader
{
  public:
    explicit BinaryReader(std::istream &in) : in_(in) {}

    std::uint64_t readU64();
    std::int64_t readI64();
    double readDouble();
    std::string readString();
    std::vector<double> readDoubles();
    Matrix readMatrix();

    bool ok() const { return ok_ && in_.good(); }

  private:
    std::istream &in_;
    bool ok_ = true;
};

/** Write the standard checkpoint header. */
void writeHeader(BinaryWriter &w, const std::string &kind,
                 std::uint32_t version);

/**
 * Validate the checkpoint header; returns the version or 0 when the
 * magic/kind does not match.
 */
std::uint32_t readHeader(BinaryReader &r, const std::string &kind);

/** CRC-32 (IEEE 802.3 polynomial, as in zlib) of a byte range. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/**
 * Atomically write a checkpoint: @p body serializes into an in-memory
 * buffer, a CRC32 footer is appended, and the result reaches @p path
 * via temp file + fsync + rename + directory fsync. Returns false
 * (leaving any previous file at @p path untouched) when the body
 * writer fails or any filesystem step errors out.
 */
bool atomicSave(const std::string &path,
                const std::function<void(BinaryWriter &)> &body);

/**
 * Read a checkpoint written by atomicSave() and verify its footer:
 * file length, footer magic and body CRC32 must all match. On success
 * @p body holds the checkpoint bytes (without the footer); on any
 * corruption — truncation, bit flip, missing footer — returns false
 * and leaves @p body empty.
 */
bool readVerified(const std::string &path, std::string &body);

/**
 * Header kind of a body readVerified() returned ("hwprnas",
 * "moea-checkpoint", ...), or "" when it has no checkpoint header.
 */
std::string checkpointKindOf(const std::string &body);

/**
 * checkpointKindOf() the verified body of @p path, or "" when the
 * file is corrupt or not a checkpoint.
 */
std::string checkpointKind(const std::string &path);

} // namespace hwpr

#endif // HWPR_COMMON_SERIALIZE_H
