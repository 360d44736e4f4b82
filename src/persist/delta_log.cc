#include "persist/delta_log.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/binary_io.h"

namespace atr {
namespace persist {
namespace {

void WriteEndpointVector(ByteWriter& writer,
                         const std::vector<EdgeEndpoints>& edges) {
  writer.WriteU32(static_cast<uint32_t>(edges.size()));
  for (const EdgeEndpoints& e : edges) {
    writer.WriteU32(e.u);
    writer.WriteU32(e.v);
  }
}

bool ReadEndpointVector(ByteReader& reader, std::vector<EdgeEndpoints>* out) {
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) return false;
  if (reader.remaining() / 8 < count) return false;
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    reader.ReadU32(&(*out)[i].u);
    reader.ReadU32(&(*out)[i].v);
  }
  return reader.ok();
}

}  // namespace

std::vector<uint8_t> EncodeDeltaRecord(uint64_t version,
                                       const GraphDelta& delta) {
  ByteWriter payload;
  payload.WriteU64(version);
  WriteEndpointVector(payload, delta.add);
  WriteEndpointVector(payload, delta.remove);

  ByteWriter out;
  out.WriteU32(static_cast<uint32_t>(payload.size()));
  out.WriteU32(Crc32(payload.buffer().data(), payload.size()));
  out.WriteBytes(payload.buffer().data(), payload.size());
  return out.TakeBuffer();
}

DeltaLogContents DecodeDeltaLog(std::span<const uint8_t> bytes) {
  DeltaLogContents contents;
  size_t pos = 0;
  while (pos < bytes.size()) {
    ByteReader header(bytes.data() + pos, bytes.size() - pos);
    uint32_t payload_len = 0, crc = 0;
    if (!header.ReadU32(&payload_len) || !header.ReadU32(&crc) ||
        header.remaining() < payload_len) {
      break;  // torn tail: the record being appended when the crash hit
    }
    const uint8_t* payload = bytes.data() + pos + header.position();
    if (Crc32(payload, payload_len) != crc) {
      break;  // corrupt bytes: same treatment as a torn tail
    }
    ByteReader reader(payload, payload_len);
    DeltaRecord record;
    if (!reader.ReadU64(&record.version) ||
        !ReadEndpointVector(reader, &record.delta.add) ||
        !ReadEndpointVector(reader, &record.delta.remove) ||
        reader.remaining() != 0) {
      break;  // checksum passed but the payload shape is wrong: stop here
    }
    contents.records.push_back(std::move(record));
    pos += 8 + payload_len;
  }
  contents.tail_bytes_dropped = bytes.size() - pos;
  return contents;
}

Status DeltaLogWriter::Open(const std::string& path) {
  Close();
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("DeltaLogWriter: fopen(" + path +
                            ") failed: " + std::strerror(errno));
  }
  path_ = path;
  return Status::Ok();
}

Status DeltaLogWriter::Append(uint64_t version, const GraphDelta& delta) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("DeltaLogWriter: Append before Open");
  }
  if (failed_) {
    return Status::FailedPrecondition(
        "DeltaLogWriter: an earlier append to " + path_ +
        " failed; the log must be rewritten or reopened before appending");
  }
  const std::vector<uint8_t> record = EncodeDeltaRecord(version, delta);
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fflush(file_) != 0) {
    failed_ = true;
    return Status::Internal("DeltaLogWriter: short write to " + path_ + ": " +
                            std::strerror(errno));
  }
  if (::fsync(::fileno(file_)) != 0) {
    failed_ = true;
    return Status::Internal("DeltaLogWriter: fsync(" + path_ +
                            ") failed: " + std::strerror(errno));
  }
  return Status::Ok();
}

void DeltaLogWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
  failed_ = false;
}

}  // namespace persist
}  // namespace atr
