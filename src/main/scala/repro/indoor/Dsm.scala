package repro.indoor

import repro.indoor.Geometry._

/** An indoor entity with practical semantics — a room, corridor segment or
  * staircase — modelled as an axis-aligned rectangle on one floor.
  *
  * @param id    unique region id, e.g. `"f2_shop_03"`
  * @param floor 0-based floor index
  * @param rect  footprint in metres
  * @param tag   semantic tag assigned through the Space Modeler
  *              (e.g. `"Adidas"`, `"Corridor"`); the spatial annotation of a
  *              mobility semantics is such a tag
  * @param kind  entity kind: `"room"`, `"corridor"` or `"staircase"`
  */
final case class Region(id: String, floor: Int, rect: Rect, tag: String, kind: String) {
  def contains(p: IndoorPoint): Boolean = p.floor == floor && rect.contains(p.pt)
  def center: IndoorPoint = IndoorPoint(rect.center.x, rect.center.y, floor)
}

/** A door connecting exactly two regions.
  *
  * A normal door joins two regions on the same floor at a wall point. A
  * staircase connector joins the stair region on floor f with the one on
  * floor f+1 at the same (x, y); traversing it costs `crossCost` extra
  * metres of walking (the stair run), which is how inter-floor distance
  * enters the minimum indoor walking distance.
  */
final case class Door(id: String, regionA: String, regionB: String,
                      x: Double, y: Double, crossCost: Double = 0.0) {
  def pt: Pt = Pt(x, y)
}

/** Digital Space Model: the semi-structured model produced by the Space
  * Modeler (paper §2/§3). It records geometric attributes and topological
  * relations of indoor entities, the semantic regions, and supports the
  * spatial computations of the Cleaning layer:
  *
  *  - `locate` — point location: the point snapped inside the walls of its
  *    floor, with the region holding it (spatial matching). It is the one
  *    point-location rule: `regionAtSnapped`, which the simulator and the
  *    annotation layer's `Seq` forms use, is the region it holds, and the
  *    Cleaner carries the index of that region with each cleaned record;
  *  - `minWalkDist` — the minimum indoor walking distance between two
  *    indoor points, respecting walls, doors and staircases (used for the
  *    speed-constraint check, per Yang et al. as cited by the paper);
  *  - `walk` — the corresponding shortest indoor path, used by
  *    the location-interpolation repair and the simulator.
  *
  * Distances follow Lu, Cao & Jensen (ICDE 2012): an all-pairs door-to-door
  * matrix is precomputed once (Floyd–Warshall), so a query only locates its
  * two endpoints and takes the minimum over (entry door, exit door) pairs of
  * their regions. `locate` scans flat per-floor arrays and tests containment
  * first: a point inside a region is its own snap, and only a point outside
  * every wall pays for the nearest-region search. Both `minWalkDist` and
  * `walk` go through the one door-pair search, `route`; callers that test
  * the same point many times (the Cleaner) locate it once and pass the
  * [[Dsm.Located]] value. The DSM is small (hundreds of doors) and
  * driver-side; Spark tasks receive it via closure/broadcast.
  */
final class Dsm(val regions: IndexedSeq[Region], val doors: IndexedSeq[Door])
    extends Serializable {
  import Dsm._

  require(regions.map(_.id).distinct.size == regions.size, "duplicate region ids")
  require(doors.map(_.id).distinct.size == doors.size, "duplicate door ids")
  doors.foreach { d =>
    require(regionById.contains(d.regionA) && regionById.contains(d.regionB),
            s"door ${d.id} references unknown region")
  }

  @transient lazy val regionById: Map[String, Region] =
    regions.map(r => r.id -> r).toMap

  /** Each region's index in `regions`, by id. */
  @transient lazy val regionIndex: Map[String, Int] =
    regions.iterator.map(_.id).zipWithIndex.toMap

  @transient lazy val regionsOnFloor: Map[Int, IndexedSeq[Region]] =
    regions.groupBy(_.floor).withDefaultValue(IndexedSeq.empty)

  /** Doors incident to each region. */
  @transient lazy val doorsOfRegion: Map[String, IndexedSeq[Door]] = {
    val m = doors.flatMap(d => Seq(d.regionA -> d, d.regionB -> d))
    m.groupBy(_._1).map { case (r, xs) => r -> xs.map(_._2) }.withDefaultValue(IndexedSeq.empty)
  }

  /** Region adjacency derived from shared doors (a topological relation). */
  @transient lazy val adjacentRegions: Map[String, Set[String]] =
    doors.flatMap(d => Seq(d.regionA -> d.regionB, d.regionB -> d.regionA))
      .groupBy(_._1).map { case (r, xs) => r -> xs.map(_._2).toSet }
      .withDefaultValue(Set.empty)

  @transient private lazy val doorIndex: Map[String, Int] =
    doors.zipWithIndex.map { case (d, i) => d.id -> i }.toMap

  /** Planar distance between two doors measured inside shared region `r`
    * (rectangular regions are convex, so the straight segment is walkable). */
  private def intraRegionDist(a: Door, b: Door): Double = a.pt.dist(b.pt)

  /** All-pairs door matrix. `doorDist(i)(j)` = minimal walking cost from
    * door i to door j, counting the crossCost of every door *after* i
    * (including j). `doorNext(i)(j)` = first hop on that path, for
    * reconstruction. Floyd–Warshall; O(|doors|^3) once at build time.
    */
  @transient lazy val (doorDist: Array[Array[Double]], doorNext: Array[Array[Int]]) = {
    val n = doors.size
    val dist = Array.fill(n, n)(Double.PositiveInfinity)
    val next = Array.fill(n, n)(-1)
    for (i <- 0 until n) { dist(i)(i) = 0.0; next(i)(i) = i }
    // Direct edges: doors sharing a region.
    for {
      (_, ds) <- doorsOfRegion
      a <- ds; b <- ds if a.id != b.id
    } {
      val i = doorIndex(a.id); val j = doorIndex(b.id)
      val w = intraRegionDist(a, b) + b.crossCost
      if (w < dist(i)(j)) { dist(i)(j) = w; next(i)(j) = j }
    }
    for (k <- 0 until n; i <- 0 until n if dist(i)(k).isFinite;
         j <- 0 until n if dist(i)(k) + dist(k)(j) < dist(i)(j)) {
      dist(i)(j) = dist(i)(k) + dist(k)(j)
      next(i)(j) = next(i)(k)
    }
    (dist, next)
  }

  // ------------------------------------------------------- point location

  /** The floors that have regions, ascending, and their flat arrays of
    * region bounds. Region order within a floor is `regions` order, which
    * fixes every first-minimum tie below. */
  @transient private lazy val floorKeys: Array[Int] = regions.map(_.floor).distinct.sorted.toArray
  @transient private lazy val floorIndex: Array[FloorIndex] =
    floorKeys.map(f => new FloorIndex(regions.indices.filter(regions(_).floor == f).toArray, regions))

  /** Pre-built `Some` per region, so lookups allocate nothing. */
  @transient private lazy val someRegion: Array[Option[Region]] = regions.map(Some(_)).toArray

  private def region(idx: Int): Option[Region] = if (idx < 0) None else someRegion(idx)

  /** The floor index for `p`, or null when `p` is off the map: a floor
    * without regions, or a non-finite coordinate. */
  private def floorOf(p: IndoorPoint): FloorIndex = {
    val f = java.util.Arrays.binarySearch(floorKeys, p.floor)
    if (f < 0 || !java.lang.Double.isFinite(p.x) || !java.lang.Double.isFinite(p.y)) null
    else floorIndex(f)
  }

  /** `p` located in the DSM: snapped into the nearest region on its floor
    * (a point inside a region is its own snap) and paired with the region
    * holding the snapped point, the smallest-area one where regions touch.
    * Off the map — a floor without regions, or a non-finite x or y — the
    * point is kept as is and has no region. */
  def locate(p: IndoorPoint): Located = {
    val fl = floorOf(p)
    if (fl == null) new Located(p, -1, None) else locate(p, fl, fl.firstContaining(p.x, p.y))
  }

  /** [[locate]] of an on-map `p` on floor `fl`, given the first region of
    * `fl` containing it (-1 when none does). */
  private def locate(p: IndoorPoint, fl: FloorIndex, first: Int): Located = {
    val k = if (first >= 0) first else fl.nearest(p.x, p.y)
    val sx = math.min(math.max(p.x, fl.xMin(k)), fl.xMax(k))
    val sy = math.min(math.max(p.y, fl.yMin(k)), fl.yMax(k))
    // Inside, the snap equals p, which no region before `first` contains;
    // outside, the snap lies on region k's wall, which earlier regions may
    // share.
    val idx = fl.ids(fl.smallestContaining(sx, sy, k, from = math.max(first, 0)))
    new Located(IndoorPoint(sx, sy, p.floor), idx, region(idx))
  }

  /** The region [[locate]] gives `p`: the one holding `p` snapped inside
    * the walls, the smallest-area one where regions touch; None off the
    * map. A point inside a region is its own snap, so its lookup builds no
    * [[Dsm.Located]]. */
  def regionAtSnapped(p: IndoorPoint): Option[Region] = region(regionIdxAtSnapped(p))

  /** The index in `regions` of [[regionAtSnapped]]`(p)`, -1 off the map. */
  def regionIdxAtSnapped(p: IndoorPoint): Int = {
    val fl = floorOf(p)
    if (fl == null) -1
    else {
      val first = fl.firstContaining(p.x, p.y)
      if (first >= 0) fl.ids(fl.smallestContaining(p.x, p.y, first, first))
      else locate(p, fl, first).idx
    }
  }

  // -------------------------------------------------------- route search

  /** Door indices incident to each region, in [[doorsOfRegion]] order. */
  @transient private lazy val regionDoors: Array[Array[Int]] =
    regions.map(r => doorsOfRegion(r.id).map(d => doorIndex(d.id)).toArray).toArray

  /** The cheapest route between two located points: straight inside a
    * shared region (`entry` = -1), otherwise through the door pair
    * (`entry`, `exit`) minimising `|a, entry| + crossCost(entry) +
    * doorDist(entry)(exit) + |exit, b|`, the first pair in
    * (entry, exit) order on ties. None when either point is off the map or
    * no pair is connected.
    *
    * Both planar legs are non-negative and rounded addition is monotone, so
    * `crossCost + doorDist` and then `|a, entry| + crossCost + doorDist` are
    * lower bounds of a pair's cost, evaluated in the same order. A pair
    * whose bound already reaches the best cost cannot replace it, so its
    * `hypot` legs are never computed; the result is that of the full scan. */
  private def route(a: Located, b: Located): Option[Route] = {
    if (a.idx < 0 || b.idx < 0) return None
    val pa = a.point; val pb = b.point
    if (a.idx == b.idx) return Some(Route(math.hypot(pa.x - pb.x, pa.y - pb.y), -1, -1))
    val entry = regionDoors(a.idx); val exit = regionDoors(b.idx)
    val toB = Array.fill(exit.length)(-1.0) // |exit, b|, computed on first use
    var best = Double.PositiveInfinity
    var bestI = -1; var bestJ = -1
    var n = 0
    while (n < entry.length) {
      val i = entry(n); val da = doors(i)
      val row = doorDist(i)
      var fromA = Double.NaN // |a, entry| + crossCost, computed on first use
      var e = 0
      while (e < exit.length) {
        val j = exit(e)
        if (da.crossCost + row(j) < best) {
          if (fromA.isNaN) fromA = math.hypot(pa.x - da.x, pa.y - da.y) + da.crossCost
          val viaDoors = fromA + row(j)
          if (viaDoors < best) {
            if (toB(e) < 0) { val db = doors(j); toB(e) = math.hypot(db.x - pb.x, db.y - pb.y) }
            val c = viaDoors + toB(e)
            if (c < best) { best = c; bestI = i; bestJ = j }
          }
        }
        e += 1
      }
      n += 1
    }
    if (bestI < 0) None else Some(Route(best, bestI, bestJ))
  }

  /** Minimum indoor walking distance between two points: Euclidean inside a
    * shared region, otherwise the cheapest door-to-door route; infinity when
    * no route exists. Points outside all regions are snapped in first.
    */
  def minWalkDist(a0: IndoorPoint, b0: IndoorPoint): Double =
    minWalkDist(locate(a0), locate(b0))

  /** [[minWalkDist]] between already-located points. */
  def minWalkDist(a: Located, b: Located): Double =
    route(a, b).fold(Double.PositiveInfinity)(_.cost)

  /** Whether `within` holds for [[minWalkDist]]`(a, b)`; `within` must hold
    * for every distance shorter than one it holds for, as a bound on speed
    * does. Inside one region the distance is the `hypot` of the planar
    * offset, which `Geometry.hypotWithin` computes only when a cheaper
    * bracket cannot decide. */
  def walkWithin(a: Located, b: Located)(within: Double => Boolean): Boolean =
    if (a.idx >= 0 && a.idx == b.idx) hypotWithin(a.point.x - b.point.x, a.point.y - b.point.y)(within)
    else within(minWalkDist(a, b))

  /** The shortest indoor walk a→b: its walking distance (== [[minWalkDist]])
    * and its cost-weighted steps. None when unreachable. */
  def walk(a: Located, b: Located): Option[Walk] =
    route(a, b).map { r =>
      val pa = a.point; val pb = b.point
      val steps = Vector.newBuilder[PathStep]
      steps += PathStep(pa, 0.0)
      if (r.entry < 0) steps += PathStep(pb, pa.planarDist(pb))
      else {
        var prev = pa
        doorChain(r.entry, r.exit).foreach { di =>
          val d = doors(di)
          val fa = regionById(d.regionA).floor
          val fb = regionById(d.regionB).floor
          if (fa == fb) {
            val w = IndoorPoint(d.x, d.y, fa)
            steps += PathStep(w, prev.planarDist(w) + d.crossCost)
            prev = w
          } else {
            // Stair connector: approach on the near side, climb, exit on
            // the far side.
            val near = if (prev.floor == fa) fa else fb
            val far = if (near == fa) fb else fa
            val wNear = IndoorPoint(d.x, d.y, near)
            val wFar = IndoorPoint(d.x, d.y, far)
            steps += PathStep(wNear, prev.planarDist(wNear))
            steps += PathStep(wFar, d.crossCost)
            prev = wFar
          }
        }
        steps += PathStep(pb, prev.planarDist(pb))
      }
      Walk(r.cost, steps.result())
    }

  /** [[walk]] between two points, locating both first. */
  def walk(a: IndoorPoint, b: IndoorPoint): Option[Walk] = walk(locate(a), locate(b))

  /** Door indices along the precomputed shortest route i→j (inclusive). */
  private def doorChain(i: Int, j: Int): Vector[Int] = {
    if (doorNext(i)(j) < 0) return Vector(i)
    var cur = i
    val buf = Vector.newBuilder[Int]
    buf += cur
    while (cur != j) { cur = doorNext(cur)(j); buf += cur }
    buf.result()
  }

  /** Point at walking-cost-fraction `f` (in [0,1]) along the shortest path
    * a→b ([[Dsm.Walk.at]]). Falls back to `a` when unreachable.
    */
  def alongPath(a: IndoorPoint, b: IndoorPoint, f: Double): IndoorPoint =
    walk(a, b).fold(a)(_.at(f))

  /** Tags of all semantic regions (distinct, sorted). */
  def semanticTags: Seq[String] = regions.map(_.tag).distinct.sorted

  override def toString: String =
    s"Dsm(${regions.size} regions, ${doors.size} doors, ${regionsOnFloor.size} floors)"
}

object Dsm {

  /** A point located by [[Dsm.locate]]: `point` is the input snapped inside
    * the walls, `region` the region holding it (None off the map) and `idx`
    * that region's index in `Dsm.regions` (-1 off the map). Only meaningful
    * for the DSM that produced it. */
  final class Located private[indoor] (val point: IndoorPoint, val idx: Int,
                                       val region: Option[Region])

  /** One hop of a walking path: the waypoint reached and the walking cost
    * (metres) spent getting there from the previous step. A stair climb
    * appears as a zero-planar-displacement step whose cost is the
    * connector's `crossCost` — time passes, position stays at the stair
    * column, the floor flips. This keeps path interpolation consistent
    * with `minWalkDist` (which charges crossCost too). */
  final case class PathStep(point: IndoorPoint, cost: Double)

  /** A shortest indoor walk: its minimum walking distance `dist` and its
    * cost-weighted `steps` (the first step is the start at cost 0). */
  final case class Walk(dist: Double, steps: Vector[PathStep]) {
    private val total = steps.map(_.cost).sum

    /** Point at walking-cost-fraction `f` (in [0,1]) along the walk. Cost
      * includes stair climbing, so a constant-rate sweep of `f` models
      * constant walking effort: the position dwells at the stair column for
      * the climb's share of the walk (floor flips at the climb's midpoint).
      */
    def at(f: Double): IndoorPoint = {
      if (total <= 0) return steps.last.point
      var remaining = math.min(math.max(f, 0.0), 1.0) * total
      var prev = steps.head.point
      var s = 1
      while (s < steps.length) {
        val PathStep(q, cost) = steps(s)
        if (remaining <= cost) {
          val g = if (cost == 0) 1.0 else remaining / cost
          // Across a climb (or any floor change) the floor flips midway.
          return IndoorPoint(prev.x + (q.x - prev.x) * g, prev.y + (q.y - prev.y) * g,
                             if (g < 0.5) prev.floor else q.floor)
        }
        remaining -= cost
        prev = q
        s += 1
      }
      steps.last.point
    }
  }

  /** A door-pair search result; `entry` = -1 for a straight walk inside one
    * region. */
  private final case class Route(cost: Double, entry: Int, exit: Int)

  /** One floor's region bounds as flat arrays; `ids(k)` is the index in
    * `Dsm.regions` of the floor's k-th region. */
  private final class FloorIndex(val ids: Array[Int], regions: IndexedSeq[Region]) {
    val xMin: Array[Double] = ids.map(regions(_).rect.xMin)
    val yMin: Array[Double] = ids.map(regions(_).rect.yMin)
    val xMax: Array[Double] = ids.map(regions(_).rect.xMax)
    val yMax: Array[Double] = ids.map(regions(_).rect.yMax)
    val area: Array[Double] = ids.map(regions(_).rect.area)

    private def contains(k: Int, x: Double, y: Double): Boolean =
      x >= xMin(k) && x <= xMax(k) && y >= yMin(k) && y <= yMax(k)

    /** The first region containing (x, y), or -1. */
    def firstContaining(x: Double, y: Double): Int = {
      var k = 0
      while (k < ids.length) { if (contains(k, x, y)) return k; k += 1 }
      -1
    }

    /** For each region, the regions whose bounds meet its bounds, itself
      * included, ascending: the only ones that can hold a point it holds. */
    private val meeting: Array[Array[Int]] = Array.tabulate(ids.length) { k =>
      ids.indices.filter(j => xMin(j) <= xMax(k) && xMin(k) <= xMax(j) &&
                              yMin(j) <= yMax(k) && yMin(k) <= yMax(j)).toArray
    }

    /** The smallest-area region containing (x, y), which region `in`
      * contains, the first on ties. The scan visits the regions meeting
      * `in` from `from` on: no region before `from` may contain (x, y). */
    def smallestContaining(x: Double, y: Double, in: Int, from: Int): Int = {
      val candidates = meeting(in)
      var best = -1
      var c = 0
      while (c < candidates.length) {
        val k = candidates(c)
        if (k >= from && contains(k, x, y) &&
            (best < 0 || java.lang.Double.compare(area(k), area(best)) < 0))
          best = k
        c += 1
      }
      best
    }

    /** The region nearest to (x, y) by rectangle distance, the first on
      * ties. */
    def nearest(x: Double, y: Double): Int = {
      var best = 0
      var bestD = Double.NaN
      var k = 0
      while (k < ids.length) {
        val cx = math.min(math.max(x, xMin(k)), xMax(k))
        val cy = math.min(math.max(y, yMin(k)), yMax(k))
        val d = math.hypot(x - cx, y - cy)
        if (k == 0 || java.lang.Double.compare(d, bestD) < 0) { best = k; bestD = d }
        k += 1
      }
      best
    }
  }
}
