#include "geosim/geometry.h"

#include <limits>

#include "common/logging.h"
#include "geosim/operations.h"

namespace cloudjoin::geosim {

namespace {

bool isPolygonal(const Geometry* g) {
  return g->getGeometryTypeId() == GeometryTypeId::kPolygon ||
         g->getGeometryTypeId() == GeometryTypeId::kMultiPolygon;
}

bool isPuntal(const Geometry* g) {
  return g->getGeometryTypeId() == GeometryTypeId::kPoint ||
         g->getGeometryTypeId() == GeometryTypeId::kMultiPoint;
}

bool isLinear(const Geometry* g) {
  return g->getGeometryTypeId() == GeometryTypeId::kLineString ||
         g->getGeometryTypeId() == GeometryTypeId::kLinearRing ||
         g->getGeometryTypeId() == GeometryTypeId::kMultiLineString;
}

}  // namespace

Geometry::~Geometry() { delete envelope_.load(); }

const geom::Envelope& Geometry::getEnvelopeInternal() const {
  const geom::Envelope* cached = envelope_.load();
  if (cached != nullptr) return *cached;
  auto computed = std::make_unique<geom::Envelope>();
  computeEnvelope(computed.get());
  if (envelope_.compare_exchange_strong(cached, computed.get())) {
    return *computed.release();
  }
  return *cached;  // another thread won; `cached` now holds its envelope
}

bool Geometry::within(const Geometry* other) const {
  if (isEmpty() || other->isEmpty()) return false;
  if (!other->getEnvelopeInternal().Contains(getEnvelopeInternal())) {
    return false;
  }
  // relate()-style graph construction for both inputs on every call —
  // pure (faithful) overhead; the predicates below do not read the graphs.
  GeometryGraph graph_a(this);
  GeometryGraph graph_b(other);
  if (isPuntal(this) && isPolygonal(other)) {
    // Per-call coordinate extraction (heap) — GEOS style.
    std::vector<Coordinate> coords = extractCoordinates(this);
    for (const Coordinate& c : coords) {
      if (!pointInPolygonal(c, other)) return false;
    }
    return true;
  }
  if (isLinear(this) && isPolygonal(other)) {
    std::vector<Coordinate> coords = extractCoordinates(this);
    for (const Coordinate& c : coords) {
      if (!pointInPolygonal(c, other)) return false;
    }
    std::vector<std::unique_ptr<LineSegment>> segs = extractSegments(this);
    for (const auto& seg : segs) {
      Coordinate mid{(seg->p0.x + seg->p1.x) * 0.5,
                     (seg->p0.y + seg->p1.y) * 0.5};
      if (!pointInPolygonal(mid, other)) return false;
    }
    return true;
  }
  return false;
}

double Geometry::distance(const Geometry* other) const {
  return DistanceOp::distance(this, other);
}

bool Geometry::isWithinDistance(const Geometry* other, double d) const {
  if (getEnvelopeInternal().Distance(other->getEnvelopeInternal()) > d) {
    return false;
  }
  return distance(other) <= d;
}

bool Geometry::intersects(const Geometry* other) const {
  if (isEmpty() || other->isEmpty()) return false;
  if (!getEnvelopeInternal().Intersects(other->getEnvelopeInternal())) {
    return false;
  }
  GeometryGraph graph_a(this);
  GeometryGraph graph_b(other);
  if (isPuntal(this)) {
    std::vector<Coordinate> coords = extractCoordinates(this);
    for (const Coordinate& c : coords) {
      if (isPolygonal(other) && pointInPolygonal(c, other)) return true;
      if (isLinear(other)) {
        std::vector<std::unique_ptr<LineSegment>> segs =
            extractSegments(other);
        for (const auto& seg : segs) {
          if (seg->distance(c) == 0.0) return true;
        }
      }
      if (isPuntal(other)) {
        std::vector<Coordinate> oc = extractCoordinates(other);
        for (const Coordinate& q : oc) {
          if (c.equals(q)) return true;
        }
      }
    }
    return false;
  }
  if (isPuntal(other)) return other->intersects(this);

  std::vector<std::unique_ptr<LineSegment>> sa = extractSegments(this);
  std::vector<std::unique_ptr<LineSegment>> sb = extractSegments(other);
  for (const auto& a : sa) {
    for (const auto& b : sb) {
      if (a->intersects(*b)) return true;
    }
  }
  std::vector<Coordinate> oc = extractCoordinates(other);
  if (isPolygonal(this) && !oc.empty() && pointInPolygonal(oc.front(), this)) {
    return true;
  }
  std::vector<Coordinate> tc = extractCoordinates(this);
  if (isPolygonal(other) && !tc.empty() &&
      pointInPolygonal(tc.front(), other)) {
    return true;
  }
  return false;
}

void LineStringImpl::computeEnvelope(geom::Envelope* out) const {
  Coordinate c;
  for (std::size_t i = 0; i < coords_->getSize(); ++i) {
    coords_->getAt(i, &c);
    out->ExpandToInclude(geom::Point{c.x, c.y});
  }
}

std::size_t PolygonImpl::getNumPoints() const {
  std::size_t n = shell_->getNumPoints();
  for (const auto& hole : holes_) n += hole->getNumPoints();
  return n;
}

void PolygonImpl::computeEnvelope(geom::Envelope* out) const {
  out->ExpandToInclude(shell_->getEnvelopeInternal());
}

std::size_t GeometryCollectionImpl::getNumPoints() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m->getNumPoints();
  return n;
}

void GeometryCollectionImpl::computeEnvelope(geom::Envelope* out) const {
  for (const auto& m : members_) {
    out->ExpandToInclude(m->getEnvelopeInternal());
  }
}

std::unique_ptr<LinearRingImpl> GeometryFactory::createLinearRing(
    std::vector<Coordinate> coords) const {
  CLOUDJOIN_CHECK(coords.size() >= 3);
  if (!coords.front().equals(coords.back())) {
    coords.push_back(coords.front());
  }
  return std::make_unique<LinearRingImpl>(
      std::make_unique<DefaultCoordinateSequence>(std::move(coords)));
}

}  // namespace cloudjoin::geosim
