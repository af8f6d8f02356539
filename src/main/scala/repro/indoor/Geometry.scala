package repro.indoor

/** 2-D planar geometry primitives for the indoor space substrate.
  *
  * Coordinates are metres in a per-building frame; the floor is carried
  * separately (see [[IndoorPoint]]) because inter-floor distance is
  * topological (staircases), not Euclidean.
  */
object Geometry {

  /** A planar point (metres). */
  final case class Pt(x: Double, y: Double) {
    def dist(o: Pt): Double = math.hypot(x - o.x, y - o.y)
    def +(o: Pt): Pt = Pt(x + o.x, y + o.y)
    def -(o: Pt): Pt = Pt(x - o.x, y - o.y)
    def *(s: Double): Pt = Pt(x * s, y * s)
    /** Linear interpolation toward `o`; `f` in [0,1]. */
    def lerp(o: Pt, f: Double): Pt = Pt(x + (o.x - x) * f, y + (o.y - y) * f)
  }

  /** A point with its floor index (0-based; floor 0 is the ground floor). */
  final case class IndoorPoint(x: Double, y: Double, floor: Int) {
    def pt: Pt = Pt(x, y)
    /** Planar distance ignoring the floor — only meaningful intra-floor or
      * inside a staircase column where x/y are shared across floors. */
    def planarDist(o: IndoorPoint): Double = pt.dist(o.pt)
  }

  /** An axis-aligned rectangle `[xMin,xMax] × [yMin,yMax]` (closed). */
  final case class Rect(xMin: Double, yMin: Double, xMax: Double, yMax: Double) {
    require(xMin <= xMax && yMin <= yMax, s"degenerate rect ($xMin,$yMin,$xMax,$yMax)")

    def width: Double  = xMax - xMin
    def height: Double = yMax - yMin
    def area: Double   = width * height
    def center: Pt     = Pt((xMin + xMax) / 2, (yMin + yMax) / 2)

    def contains(p: Pt): Boolean =
      p.x >= xMin && p.x <= xMax && p.y >= yMin && p.y <= yMax

    /** Closest point of the rectangle to `p` (== `p` when inside). */
    def clamp(p: Pt): Pt =
      Pt(math.min(math.max(p.x, xMin), xMax), math.min(math.max(p.y, yMin), yMax))

    /** Euclidean distance from `p` to the rectangle (0 when inside). */
    def dist(p: Pt): Double = p.dist(clamp(p))

    def intersects(o: Rect): Boolean =
      xMin <= o.xMax && o.xMin <= xMax && yMin <= o.yMax && o.yMin <= yMax

    /** Grow by `m` metres on every side (shrink with negative `m`). */
    def inflate(m: Double): Rect = Rect(xMin - m, yMin - m, xMax + m, yMax + m)

    /** Smallest rect covering both. */
    def union(o: Rect): Rect =
      Rect(math.min(xMin, o.xMin), math.min(yMin, o.yMin),
           math.max(xMax, o.xMax), math.max(yMax, o.yMax))
  }

  object Rect {
    /** Bounding box of a non-empty set of points. */
    def bound(ps: Iterable[Pt]): Rect = {
      require(ps.nonEmpty, "bound of empty point set")
      Rect(ps.map(_.x).min, ps.map(_.y).min, ps.map(_.x).max, ps.map(_.y).max)
    }
  }

  /** Whether `within` holds for `math.hypot(dx, dy)`; `within` must hold
    * for every length shorter than one it holds for. The length is
    * bracketed first by `sqrt` of the squared offset, widened by 10^-12^
    * relative each way (`sqrt` and `hypot` each differ from the exact
    * length by a few ulps), and `within` is tried at the bracket's ends: it
    * decides when they agree, and only otherwise, or when the square
    * underflows, overflows or is NaN, is `hypot` computed. The answer is
    * that of `within(math.hypot(dx, dy))`. */
  def hypotWithin(dx: Double, dy: Double)(within: Double => Boolean): Boolean = {
    val sq = dx * dx + dy * dy
    if (sq > 1e-200 && sq < 1e200) {
      val r = math.sqrt(sq)
      if (within(r * (1 + 1e-12))) return true
      if (!within(r * (1 - 1e-12))) return false
    }
    within(math.hypot(dx, dy))
  }

  /** Heading (radians in (-pi, pi]) of the displacement a→b; 0 when equal. */
  def heading(a: Pt, b: Pt): Double =
    if (a == b) 0.0 else math.atan2(b.y - a.y, b.x - a.x)

  /** Absolute turn angle in [0, pi] between two headings. */
  def turnAngle(h1: Double, h2: Double): Double = {
    val d = math.abs(h2 - h1) % (2 * math.Pi)
    if (d > math.Pi) 2 * math.Pi - d else d
  }

  /** Total length of a polyline given as ordered waypoints. */
  def pathLength(ps: Seq[Pt]): Double =
    if (ps.size < 2) 0.0 else ps.sliding(2).map { case Seq(a, b) => a.dist(b) }.sum
}
