#include "geom/wkb.h"

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

namespace cloudjoin::geom {

namespace {

constexpr uint8_t kLittleEndian = 1;
constexpr uint8_t kBigEndian = 0;

uint32_t WkbType(GeometryType type) {
  switch (type) {
    case GeometryType::kPoint:
      return 1;
    case GeometryType::kLineString:
      return 2;
    case GeometryType::kPolygon:
      return 3;
    case GeometryType::kMultiPoint:
      return 4;
    case GeometryType::kMultiLineString:
      return 5;
    case GeometryType::kMultiPolygon:
      return 6;
  }
  return 0;
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutDouble(double v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutCoords(std::span<const Point> pts, std::string* out) {
  PutU32(static_cast<uint32_t>(pts.size()), out);
  for (const Point& p : pts) {
    PutDouble(p.x, out);
    PutDouble(p.y, out);
  }
}

void WriteInto(const Geometry& g, std::string* out) {
  out->push_back(static_cast<char>(kLittleEndian));
  PutU32(WkbType(g.type()), out);
  switch (g.type()) {
    case GeometryType::kPoint: {
      // WKB POINT has no count; an empty point is encoded as NaN/NaN.
      if (g.IsEmpty()) {
        PutDouble(std::numeric_limits<double>::quiet_NaN(), out);
        PutDouble(std::numeric_limits<double>::quiet_NaN(), out);
      } else {
        PutDouble(g.FirstPoint().x, out);
        PutDouble(g.FirstPoint().y, out);
      }
      break;
    }
    case GeometryType::kLineString:
      PutCoords(g.Coords(), out);
      break;
    case GeometryType::kPolygon: {
      int rings = g.IsEmpty() ? 0 : g.NumRings(0);
      PutU32(static_cast<uint32_t>(rings), out);
      for (int r = 0; r < rings; ++r) PutCoords(g.Ring(0, r), out);
      break;
    }
    case GeometryType::kMultiPoint: {
      PutU32(static_cast<uint32_t>(g.NumCoords()), out);
      for (const Point& p : g.Coords()) {
        WriteInto(Geometry::MakePoint(p.x, p.y), out);
      }
      break;
    }
    case GeometryType::kMultiLineString: {
      PutU32(static_cast<uint32_t>(g.NumParts()), out);
      for (int part = 0; part < g.NumParts(); ++part) {
        auto pts = g.Ring(part, 0);
        WriteInto(Geometry::MakeLineString(
                      std::vector<Point>(pts.begin(), pts.end())),
                  out);
      }
      break;
    }
    case GeometryType::kMultiPolygon: {
      PutU32(static_cast<uint32_t>(g.NumParts()), out);
      for (int part = 0; part < g.NumParts(); ++part) {
        std::vector<std::vector<Point>> rings;
        for (int r = 0; r < g.NumRings(part); ++r) {
          auto pts = g.Ring(part, r);
          rings.emplace_back(pts.begin(), pts.end());
        }
        WriteInto(Geometry::MakePolygon(std::move(rings)), out);
      }
      break;
    }
  }
}

/// Cursor over WKB bytes with byte-order-aware reads.
class WkbCursor {
 public:
  explicit WkbCursor(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadByte() {
    if (pos_ + 1 > data_.size()) return Truncated();
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint32_t> ReadU32(bool swap) {
    if (pos_ + 4 > data_.size()) return Truncated();
    uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    if (swap) v = __builtin_bswap32(v);
    return v;
  }

  Result<double> ReadDouble(bool swap) {
    if (pos_ + 8 > data_.size()) return Truncated();
    uint64_t bits;
    std::memcpy(&bits, data_.data() + pos_, 8);
    pos_ += 8;
    if (swap) bits = __builtin_bswap64(bits);
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  Result<std::vector<Point>> ReadCoords(bool swap) {
    CLOUDJOIN_ASSIGN_OR_RETURN(uint32_t n, ReadU32(swap));
    if (static_cast<size_t>(n) * 16 > data_.size() - pos_) {
      return Status::ParseError("WKB coordinate count exceeds payload");
    }
    std::vector<Point> pts(n);
    if (!swap) {
      // Point is two contiguous doubles; native-order payloads copy in
      // one block — the byte-for-byte speed that motivates binary storage.
      std::memcpy(pts.data(), data_.data() + pos_,
                  static_cast<size_t>(n) * 16);
      pos_ += static_cast<size_t>(n) * 16;
      return pts;
    }
    for (uint32_t i = 0; i < n; ++i) {
      CLOUDJOIN_ASSIGN_OR_RETURN(double x, ReadDouble(swap));
      CLOUDJOIN_ASSIGN_OR_RETURN(double y, ReadDouble(swap));
      pts[i] = Point{x, y};
    }
    return pts;
  }

  bool AtEnd() const { return pos_ >= data_.size(); }

  Result<Geometry> ReadGeometry(int depth);

 private:
  static Status Truncated() { return Status::ParseError("truncated WKB"); }

  std::string_view data_;
  size_t pos_ = 0;
};

Result<Geometry> WkbCursor::ReadGeometry(int depth) {
  if (depth > 4) return Status::ParseError("WKB nesting too deep");
  CLOUDJOIN_ASSIGN_OR_RETURN(uint8_t order, ReadByte());
  if (order != kLittleEndian && order != kBigEndian) {
    return Status::ParseError("bad WKB byte-order marker");
  }
  // A little-endian host must swap big-endian payloads.
  const bool swap = order == kBigEndian;
  CLOUDJOIN_ASSIGN_OR_RETURN(uint32_t type, ReadU32(swap));
  switch (type) {
    case 1: {
      CLOUDJOIN_ASSIGN_OR_RETURN(double x, ReadDouble(swap));
      CLOUDJOIN_ASSIGN_OR_RETURN(double y, ReadDouble(swap));
      if (std::isnan(x) && std::isnan(y)) {
        return Geometry(GeometryType::kPoint);
      }
      return Geometry::MakePoint(x, y);
    }
    case 2: {
      CLOUDJOIN_ASSIGN_OR_RETURN(std::vector<Point> pts, ReadCoords(swap));
      return Geometry::MakeLineString(std::move(pts));
    }
    case 3: {
      CLOUDJOIN_ASSIGN_OR_RETURN(uint32_t rings, ReadU32(swap));
      std::vector<std::vector<Point>> ring_list;
      for (uint32_t r = 0; r < rings; ++r) {
        CLOUDJOIN_ASSIGN_OR_RETURN(std::vector<Point> pts, ReadCoords(swap));
        ring_list.push_back(std::move(pts));
      }
      if (ring_list.empty()) return Geometry(GeometryType::kPolygon);
      return Geometry::MakePolygon(std::move(ring_list));
    }
    case 4: {
      CLOUDJOIN_ASSIGN_OR_RETURN(uint32_t n, ReadU32(swap));
      std::vector<Point> pts;
      for (uint32_t i = 0; i < n; ++i) {
        CLOUDJOIN_ASSIGN_OR_RETURN(Geometry p, ReadGeometry(depth + 1));
        if (p.type() != GeometryType::kPoint || p.IsEmpty()) {
          return Status::ParseError("MULTIPOINT member must be POINT");
        }
        pts.push_back(p.FirstPoint());
      }
      return Geometry::MakeMultiPoint(std::move(pts));
    }
    case 5: {
      CLOUDJOIN_ASSIGN_OR_RETURN(uint32_t n, ReadU32(swap));
      std::vector<std::vector<Point>> paths;
      for (uint32_t i = 0; i < n; ++i) {
        CLOUDJOIN_ASSIGN_OR_RETURN(Geometry line, ReadGeometry(depth + 1));
        if (line.type() != GeometryType::kLineString) {
          return Status::ParseError("MULTILINESTRING member must be "
                                    "LINESTRING");
        }
        auto pts = line.Coords();
        paths.emplace_back(pts.begin(), pts.end());
      }
      return Geometry::MakeMultiLineString(std::move(paths));
    }
    case 6: {
      CLOUDJOIN_ASSIGN_OR_RETURN(uint32_t n, ReadU32(swap));
      std::vector<std::vector<std::vector<Point>>> polys;
      for (uint32_t i = 0; i < n; ++i) {
        CLOUDJOIN_ASSIGN_OR_RETURN(Geometry poly, ReadGeometry(depth + 1));
        if (poly.type() != GeometryType::kPolygon) {
          return Status::ParseError("MULTIPOLYGON member must be POLYGON");
        }
        std::vector<std::vector<Point>> rings;
        if (!poly.IsEmpty()) {
          for (int r = 0; r < poly.NumRings(0); ++r) {
            auto pts = poly.Ring(0, r);
            rings.emplace_back(pts.begin(), pts.end());
          }
        }
        polys.push_back(std::move(rings));
      }
      return Geometry::MakeMultiPolygon(std::move(polys));
    }
    default:
      return Status::ParseError("unsupported WKB type " +
                                std::to_string(type));
  }
}

}  // namespace

std::string WriteWkb(const Geometry& g) {
  std::string out;
  WriteInto(g, &out);
  return out;
}

Result<Geometry> ReadWkb(std::string_view data) {
  WkbCursor cursor(data);
  CLOUDJOIN_ASSIGN_OR_RETURN(Geometry g, cursor.ReadGeometry(0));
  if (!cursor.AtEnd()) return Status::ParseError("trailing WKB bytes");
  return g;
}

std::string ToHex(std::string_view bytes) {
  static const char* kDigits = "0123456789ABCDEF";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

Result<std::string> FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) return Status::ParseError("odd hex length");
  // Table-driven decode; 0xFF marks invalid digits and ORs through so a
  // single check at the end suffices.
  static const auto kTable = [] {
    std::array<uint8_t, 256> table;
    table.fill(0xFF);
    for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<uint8_t>(c - '0');
    for (int c = 'A'; c <= 'F'; ++c) {
      table[c] = static_cast<uint8_t>(c - 'A' + 10);
    }
    for (int c = 'a'; c <= 'f'; ++c) {
      table[c] = static_cast<uint8_t>(c - 'a' + 10);
    }
    return table;
  }();
  std::string out(hex.size() / 2, '\0');
  uint8_t bad = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    uint8_t hi = kTable[static_cast<uint8_t>(hex[2 * i])];
    uint8_t lo = kTable[static_cast<uint8_t>(hex[2 * i + 1])];
    bad |= hi | lo;
    out[i] = static_cast<char>((hi << 4) | (lo & 0xF));
  }
  if ((bad & 0x80) != 0) return Status::ParseError("bad hex digit");
  return out;
}

std::string WriteWkbHex(const Geometry& g) { return ToHex(WriteWkb(g)); }

Result<Geometry> ReadWkbHex(std::string_view hex) {
  CLOUDJOIN_ASSIGN_OR_RETURN(std::string bytes, FromHex(hex));
  return ReadWkb(bytes);
}

}  // namespace cloudjoin::geom
