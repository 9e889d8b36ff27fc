// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/workload/lab/trace.h"

#include <cstring>

namespace cepshed {
namespace lab {

namespace {

constexpr char kMagic[8] = {'C', 'E', 'P', 'T', 'R', 'C', '0', '1'};
constexpr uint32_t kFlagRoutes = 1u;
constexpr uint32_t kFlagResizes = 2u;
/// Byte offsets of the flags/count/checksum header fields patched on Close.
constexpr std::streamoff kFlagsOffset = 8;
constexpr std::streamoff kCountOffset = 12;
constexpr std::streamoff kChecksumOffset = 20;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(uint64_t h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutVarint(out, s.size());
  out->append(s);
}

/// Bounds-checked cursor over the raw file bytes. Every read reports
/// corruption as a ParseError instead of walking off the buffer.
class Cursor {
 public:
  Cursor(const std::string& data, size_t pos) : data_(data), pos_(pos) {}

  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

  Result<uint64_t> Varint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size() || shift > 63) {
        return Status::ParseError("trace: truncated varint at byte " +
                                  std::to_string(pos_));
      }
      const uint8_t b = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  /// An element count. Every element takes at least one byte, so a count
  /// above the bytes left is corrupt; rejecting it bounds every reserve by
  /// the input size.
  Result<uint64_t> Count() {
    uint64_t n;
    CEPSHED_ASSIGN_OR_RETURN(n, Varint());
    if (n > data_.size() - pos_) {
      return Status::ParseError("trace: count " + std::to_string(n) +
                                " exceeds the bytes left");
    }
    return n;
  }

  Result<uint32_t> U32() {
    if (pos_ + 4 > data_.size()) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> U64() {
    if (pos_ + 8 > data_.size()) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<double> Double() {
    uint64_t bits;
    CEPSHED_ASSIGN_OR_RETURN(bits, U64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<uint8_t> Byte() {
    if (pos_ >= data_.size()) return Truncated();
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<std::string> String() {
    uint64_t len;
    CEPSHED_ASSIGN_OR_RETURN(len, Varint());
    if (len > data_.size() - pos_) return Truncated();
    std::string s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }

 private:
  Status Truncated() const {
    return Status::ParseError("trace: truncated at byte " + std::to_string(pos_));
  }

  const std::string& data_;
  size_t pos_;
};

void SerializeEvent(const Event& event, const std::vector<int>* route,
                    std::string* out) {
  PutVarint(out, static_cast<uint64_t>(event.type()));
  PutVarint(out, ZigZag(event.timestamp()));
  PutVarint(out, event.seq());
  PutVarint(out, event.num_attrs());
  for (size_t a = 0; a < event.num_attrs(); ++a) {
    const Value& v = event.attr(static_cast<int>(a));
    out->push_back(static_cast<char>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        PutVarint(out, ZigZag(v.AsInt()));
        break;
      case ValueType::kDouble:
        PutDouble(out, v.AsDouble());
        break;
      case ValueType::kString:
        PutString(out, v.AsString());
        break;
    }
  }
  if (route != nullptr) {
    PutVarint(out, route->size());
    for (int shard : *route) PutVarint(out, static_cast<uint64_t>(shard));
  }
}

}  // namespace

Result<std::unique_ptr<TraceWriter>> TraceWriter::Open(const std::string& path,
                                                       const Schema& schema,
                                                       bool with_routes) {
  std::unique_ptr<TraceWriter> writer(new TraceWriter());
  writer->path_ = path;
  writer->with_routes_ = with_routes;
  writer->file_.open(path, std::ios::binary | std::ios::trunc | std::ios::in |
                               std::ios::out);
  if (!writer->file_.is_open()) {
    return Status::InvalidArgument("cannot create trace file " + path);
  }

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU32(&header, with_routes ? kFlagRoutes : 0u);
  PutU64(&header, 0);  // count, patched on Close
  PutU64(&header, 0);  // checksum, patched on Close
  PutU32(&header, static_cast<uint32_t>(schema.num_event_types()));
  for (size_t t = 0; t < schema.num_event_types(); ++t) {
    PutString(&header, schema.EventTypeName(static_cast<int>(t)));
  }
  PutU32(&header, static_cast<uint32_t>(schema.num_attributes()));
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const AttributeDef& def = schema.attribute(static_cast<int>(a));
    header.push_back(static_cast<char>(def.type));
    PutString(&header, def.name);
  }
  writer->file_.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!writer->file_) return Status::InvalidArgument("cannot write " + path);
  writer->checksum_ = kFnvOffset;
  return writer;
}

Status TraceWriter::AppendSerialized(const std::string& body) {
  if (closed_) return Status::InvalidArgument("trace writer already closed");
  file_.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!file_) return Status::InvalidArgument("cannot write " + path_);
  checksum_ = Fnv1a(checksum_, body.data(), body.size());
  ++num_events_;
  return Status::OK();
}

Status TraceWriter::Append(const Event& event) {
  if (with_routes_) {
    return Status::InvalidArgument(
        "trace was opened with routes; use the route overload");
  }
  std::string body;
  SerializeEvent(event, nullptr, &body);
  return AppendSerialized(body);
}

Status TraceWriter::Append(const Event& event, const std::vector<int>& route) {
  if (!with_routes_) {
    return Status::InvalidArgument(
        "trace was opened without routes; use the plain overload");
  }
  std::string body;
  SerializeEvent(event, &route, &body);
  return AppendSerialized(body);
}

void TraceWriter::RecordResize(uint64_t seq, int old_shards, int new_shards) {
  resizes_.push_back({seq, old_shards, new_shards});
}

Status TraceWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (!resizes_.empty()) {
    // The resize section trails the events and is folded into the same
    // running checksum, so corruption anywhere in the file is caught.
    std::string section;
    PutVarint(&section, resizes_.size());
    for (const TraceResize& r : resizes_) {
      PutVarint(&section, r.seq);
      PutVarint(&section, static_cast<uint64_t>(r.old_shards));
      PutVarint(&section, static_cast<uint64_t>(r.new_shards));
    }
    file_.write(section.data(), static_cast<std::streamsize>(section.size()));
    checksum_ = Fnv1a(checksum_, section.data(), section.size());
    std::string flags;
    PutU32(&flags, (with_routes_ ? kFlagRoutes : 0u) | kFlagResizes);
    file_.seekp(kFlagsOffset);
    file_.write(flags.data(), static_cast<std::streamsize>(flags.size()));
  }
  std::string patch;
  PutU64(&patch, num_events_);
  PutU64(&patch, checksum_);
  file_.seekp(kCountOffset);
  file_.write(patch.data(), static_cast<std::streamsize>(patch.size()));
  file_.flush();
  if (!file_) return Status::InvalidArgument("cannot finalize " + path_);
  file_.close();
  return Status::OK();
}

TraceWriter::~TraceWriter() {
  // Deliberately no auto-Close: a writer that never reached Close leaves
  // the zero count/checksum in place, so the reader rejects the capture
  // instead of replaying a silently truncated run.
  if (file_.is_open()) file_.close();
}

Result<TraceData> ReadTrace(const std::string& path, size_t max_events) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::InvalidArgument("cannot open trace " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());

  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not a CepShed trace (bad magic): " + path);
  }
  Cursor cur(data, sizeof(kMagic));
  uint32_t flags;
  uint64_t count;
  uint64_t checksum;
  CEPSHED_ASSIGN_OR_RETURN(flags, cur.U32());
  CEPSHED_ASSIGN_OR_RETURN(count, cur.U64());
  CEPSHED_ASSIGN_OR_RETURN(checksum, cur.U64());
  if (count == 0 && checksum == 0 && data.size() > kChecksumOffset + 8 + 8) {
    // Placeholder header with trailing bytes: the recorder never Closed.
    return Status::ParseError("trace was never finalized (missing Close): " + path);
  }
  const bool has_routes = (flags & kFlagRoutes) != 0;

  auto schema = std::make_unique<Schema>();
  uint32_t num_types;
  CEPSHED_ASSIGN_OR_RETURN(num_types, cur.U32());
  for (uint32_t t = 0; t < num_types; ++t) {
    std::string name;
    CEPSHED_ASSIGN_OR_RETURN(name, cur.String());
    CEPSHED_RETURN_NOT_OK(schema->AddEventType(std::move(name)).status());
  }
  uint32_t num_attrs;
  CEPSHED_ASSIGN_OR_RETURN(num_attrs, cur.U32());
  for (uint32_t a = 0; a < num_attrs; ++a) {
    uint8_t tag;
    CEPSHED_ASSIGN_OR_RETURN(tag, cur.Byte());
    std::string name;
    CEPSHED_ASSIGN_OR_RETURN(name, cur.String());
    CEPSHED_RETURN_NOT_OK(
        schema->AddAttribute(std::move(name), static_cast<ValueType>(tag)).status());
  }

  const size_t event_section_start = cur.pos();
  TraceData trace(std::move(schema));
  const uint64_t want = max_events > 0 && max_events < count
                            ? static_cast<uint64_t>(max_events)
                            : count;
  for (uint64_t i = 0; i < want; ++i) {
    uint64_t type_v;
    uint64_t ts_v;
    uint64_t seq;
    uint64_t nattrs;
    CEPSHED_ASSIGN_OR_RETURN(type_v, cur.Varint());
    CEPSHED_ASSIGN_OR_RETURN(ts_v, cur.Varint());
    CEPSHED_ASSIGN_OR_RETURN(seq, cur.Varint());
    CEPSHED_ASSIGN_OR_RETURN(nattrs, cur.Count());
    std::vector<Value> attrs;
    attrs.reserve(nattrs);
    for (uint64_t a = 0; a < nattrs; ++a) {
      uint8_t tag;
      CEPSHED_ASSIGN_OR_RETURN(tag, cur.Byte());
      switch (static_cast<ValueType>(tag)) {
        case ValueType::kNull:
          attrs.emplace_back();
          break;
        case ValueType::kInt: {
          uint64_t v;
          CEPSHED_ASSIGN_OR_RETURN(v, cur.Varint());
          attrs.emplace_back(UnZigZag(v));
          break;
        }
        case ValueType::kDouble: {
          double v;
          CEPSHED_ASSIGN_OR_RETURN(v, cur.Double());
          attrs.emplace_back(v);
          break;
        }
        case ValueType::kString: {
          std::string v;
          CEPSHED_ASSIGN_OR_RETURN(v, cur.String());
          attrs.emplace_back(std::move(v));
          break;
        }
        default:
          return Status::ParseError("trace: unknown value tag " +
                                    std::to_string(tag) + " in event " +
                                    std::to_string(i));
      }
    }
    // Append (not Emit) preserves the recorded sequence numbers: shedders
    // and guards hash event.seq(), so replay fidelity depends on it.
    CEPSHED_RETURN_NOT_OK(trace.stream.Append(std::make_shared<Event>(
        static_cast<int>(type_v), UnZigZag(ts_v), seq, std::move(attrs))));
    if (has_routes) {
      uint64_t nroutes;
      CEPSHED_ASSIGN_OR_RETURN(nroutes, cur.Count());
      std::vector<int> route;
      route.reserve(nroutes);
      for (uint64_t r = 0; r < nroutes; ++r) {
        uint64_t shard;
        CEPSHED_ASSIGN_OR_RETURN(shard, cur.Varint());
        route.push_back(static_cast<int>(shard));
      }
      trace.routes.push_back(std::move(route));
    }
  }

  if (want == count) {
    if ((flags & kFlagResizes) != 0) {
      uint64_t nresizes;
      CEPSHED_ASSIGN_OR_RETURN(nresizes, cur.Count());
      trace.resizes.reserve(nresizes);
      for (uint64_t r = 0; r < nresizes; ++r) {
        TraceResize resize;
        CEPSHED_ASSIGN_OR_RETURN(resize.seq, cur.Varint());
        uint64_t old_shards;
        uint64_t new_shards;
        CEPSHED_ASSIGN_OR_RETURN(old_shards, cur.Varint());
        CEPSHED_ASSIGN_OR_RETURN(new_shards, cur.Varint());
        resize.old_shards = static_cast<int>(old_shards);
        resize.new_shards = static_cast<int>(new_shards);
        if (resize.old_shards < 1 || resize.new_shards < 1 ||
            resize.old_shards == resize.new_shards) {
          return Status::ParseError("trace: nonsensical resize " +
                                    std::to_string(old_shards) + " -> " +
                                    std::to_string(new_shards) + " at entry " +
                                    std::to_string(r));
        }
        trace.resizes.push_back(resize);
      }
    }
    if (!cur.AtEnd()) {
      return Status::ParseError("trace: " +
                                std::to_string(data.size() - cur.pos()) +
                                " trailing bytes after the last event");
    }
    const uint64_t actual = Fnv1a(kFnvOffset, data.data() + event_section_start,
                                  data.size() - event_section_start);
    if (actual != checksum) {
      return Status::ParseError("trace checksum mismatch (corrupt capture): " +
                                path);
    }
  }
  return trace;
}

Status WriteTrace(const EventStream& stream, const std::string& path) {
  std::unique_ptr<TraceWriter> writer;
  CEPSHED_ASSIGN_OR_RETURN(writer, TraceWriter::Open(path, stream.schema(), false));
  for (const EventPtr& event : stream) {
    CEPSHED_RETURN_NOT_OK(writer->Append(*event));
  }
  return writer->Close();
}

std::string ResizeScheduleSpec(const std::vector<TraceResize>& resizes) {
  std::string spec;
  for (const TraceResize& r : resizes) {
    if (!spec.empty()) spec += ';';
    spec += "resize:at=" + std::to_string(r.seq) +
            ",delta=" + std::to_string(r.new_shards - r.old_shards);
  }
  return spec;
}

}  // namespace lab
}  // namespace cepshed
