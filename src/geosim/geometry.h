#ifndef CLOUDJOIN_GEOSIM_GEOMETRY_H_
#define CLOUDJOIN_GEOSIM_GEOMETRY_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "geom/envelope.h"
#include "geosim/coordinate_sequence.h"

namespace cloudjoin::geosim {

/// GEOS-style type ids.
enum class GeometryTypeId {
  kPoint,
  kMultiPoint,
  kLineString,
  kLinearRing,
  kMultiLineString,
  kPolygon,
  kMultiPolygon,
};

class GeometryFactory;

/// Abstract GEOS-style geometry. Instances are heap objects created by a
/// `GeometryFactory` and owned through `std::unique_ptr` — the opposite of
/// the flat `geom::Geometry` value type, by design (see coordinate.h).
class Geometry {
 public:
  Geometry() = default;
  Geometry(const Geometry&) = delete;
  Geometry& operator=(const Geometry&) = delete;
  virtual ~Geometry();

  virtual GeometryTypeId getGeometryTypeId() const = 0;
  virtual std::size_t getNumPoints() const = 0;
  virtual bool isEmpty() const { return getNumPoints() == 0; }

  /// Lazily computed envelope (cached, as in GEOS). Safe to call from
  /// several threads at once: a broadcast right side's parsed geometries
  /// are shared by concurrent queries and fragment instances.
  const geom::Envelope& getEnvelopeInternal() const;

  /// OGC `this WITHIN other`. Supported combinations match
  /// `geom::Within`; unsupported combinations return false.
  bool within(const Geometry* other) const;

  /// Minimum distance to `other` (point/line/polygon combinations).
  double distance(const Geometry* other) const;

  /// `this INTERSECTS other`.
  bool intersects(const Geometry* other) const;

  /// True if distance(other) <= d, with an envelope early-exit.
  bool isWithinDistance(const Geometry* other, double d) const;

  virtual std::string getGeometryType() const = 0;

 protected:
  virtual void computeEnvelope(geom::Envelope* out) const = 0;

 private:
  /// Owned; set once by compare-and-swap. A thread that loses the race
  /// frees its own copy and returns the winner's.
  mutable std::atomic<const geom::Envelope*> envelope_{nullptr};
};

/// Point.
class PointImpl final : public Geometry {
 public:
  explicit PointImpl(const Coordinate& c) : coord_(c) {}

  GeometryTypeId getGeometryTypeId() const override {
    return GeometryTypeId::kPoint;
  }
  std::size_t getNumPoints() const override { return 1; }
  std::string getGeometryType() const override { return "Point"; }

  const Coordinate& getCoordinate() const { return coord_; }
  double getX() const { return coord_.x; }
  double getY() const { return coord_.y; }

 protected:
  void computeEnvelope(geom::Envelope* out) const override {
    out->ExpandToInclude(geom::Point{coord_.x, coord_.y});
  }

 private:
  Coordinate coord_;
};

/// LineString (and its LinearRing subclass).
class LineStringImpl : public Geometry {
 public:
  explicit LineStringImpl(std::unique_ptr<CoordinateSequence> coords)
      : coords_(std::move(coords)) {}

  GeometryTypeId getGeometryTypeId() const override {
    return GeometryTypeId::kLineString;
  }
  std::size_t getNumPoints() const override { return coords_->getSize(); }
  std::string getGeometryType() const override { return "LineString"; }

  const CoordinateSequence* getCoordinatesRO() const { return coords_.get(); }

  /// Heap copy of the coordinates (GEOS operations often take this).
  std::unique_ptr<CoordinateSequence> getCoordinates() const {
    return coords_->clone();
  }

 protected:
  void computeEnvelope(geom::Envelope* out) const override;

 private:
  std::unique_ptr<CoordinateSequence> coords_;
};

/// Closed ring used as polygon shell/hole.
class LinearRingImpl final : public LineStringImpl {
 public:
  explicit LinearRingImpl(std::unique_ptr<CoordinateSequence> coords)
      : LineStringImpl(std::move(coords)) {}

  GeometryTypeId getGeometryTypeId() const override {
    return GeometryTypeId::kLinearRing;
  }
  std::string getGeometryType() const override { return "LinearRing"; }
};

/// Polygon = shell + holes.
class PolygonImpl final : public Geometry {
 public:
  PolygonImpl(std::unique_ptr<LinearRingImpl> shell,
              std::vector<std::unique_ptr<LinearRingImpl>> holes)
      : shell_(std::move(shell)), holes_(std::move(holes)) {}

  GeometryTypeId getGeometryTypeId() const override {
    return GeometryTypeId::kPolygon;
  }
  std::size_t getNumPoints() const override;
  std::string getGeometryType() const override { return "Polygon"; }

  const LinearRingImpl* getExteriorRing() const { return shell_.get(); }
  std::size_t getNumInteriorRing() const { return holes_.size(); }
  const LinearRingImpl* getInteriorRingN(std::size_t i) const {
    return holes_[i].get();
  }

 protected:
  void computeEnvelope(geom::Envelope* out) const override;

 private:
  std::unique_ptr<LinearRingImpl> shell_;
  std::vector<std::unique_ptr<LinearRingImpl>> holes_;
};

/// Base for homogeneous collections.
class GeometryCollectionImpl : public Geometry {
 public:
  explicit GeometryCollectionImpl(
      std::vector<std::unique_ptr<Geometry>> members)
      : members_(std::move(members)) {}

  std::size_t getNumGeometries() const { return members_.size(); }
  const Geometry* getGeometryN(std::size_t i) const {
    return members_[i].get();
  }
  std::size_t getNumPoints() const override;

 protected:
  void computeEnvelope(geom::Envelope* out) const override;

 private:
  std::vector<std::unique_ptr<Geometry>> members_;
};

class MultiPointImpl final : public GeometryCollectionImpl {
 public:
  using GeometryCollectionImpl::GeometryCollectionImpl;
  GeometryTypeId getGeometryTypeId() const override {
    return GeometryTypeId::kMultiPoint;
  }
  std::string getGeometryType() const override { return "MultiPoint"; }
};

class MultiLineStringImpl final : public GeometryCollectionImpl {
 public:
  using GeometryCollectionImpl::GeometryCollectionImpl;
  GeometryTypeId getGeometryTypeId() const override {
    return GeometryTypeId::kMultiLineString;
  }
  std::string getGeometryType() const override { return "MultiLineString"; }
};

class MultiPolygonImpl final : public GeometryCollectionImpl {
 public:
  using GeometryCollectionImpl::GeometryCollectionImpl;
  GeometryTypeId getGeometryTypeId() const override {
    return GeometryTypeId::kMultiPolygon;
  }
  std::string getGeometryType() const override { return "MultiPolygon"; }
};

/// Creates geometries, GEOS style. Stateless; exists to mirror the
/// construction API used by ISP-MC's UDF wrappers.
class GeometryFactory {
 public:
  std::unique_ptr<PointImpl> createPoint(const Coordinate& c) const {
    return std::make_unique<PointImpl>(c);
  }

  std::unique_ptr<LineStringImpl> createLineString(
      std::vector<Coordinate> coords) const {
    return std::make_unique<LineStringImpl>(
        std::make_unique<DefaultCoordinateSequence>(std::move(coords)));
  }

  std::unique_ptr<LinearRingImpl> createLinearRing(
      std::vector<Coordinate> coords) const;

  std::unique_ptr<PolygonImpl> createPolygon(
      std::unique_ptr<LinearRingImpl> shell,
      std::vector<std::unique_ptr<LinearRingImpl>> holes) const {
    return std::make_unique<PolygonImpl>(std::move(shell), std::move(holes));
  }

  std::unique_ptr<MultiPointImpl> createMultiPoint(
      std::vector<std::unique_ptr<Geometry>> members) const {
    return std::make_unique<MultiPointImpl>(std::move(members));
  }

  std::unique_ptr<MultiLineStringImpl> createMultiLineString(
      std::vector<std::unique_ptr<Geometry>> members) const {
    return std::make_unique<MultiLineStringImpl>(std::move(members));
  }

  std::unique_ptr<MultiPolygonImpl> createMultiPolygon(
      std::vector<std::unique_ptr<Geometry>> members) const {
    return std::make_unique<MultiPolygonImpl>(std::move(members));
  }
};

}  // namespace cloudjoin::geosim

#endif  // CLOUDJOIN_GEOSIM_GEOMETRY_H_
