package repro.indoor

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll
import repro.gen.Mall
import repro.indoor.Geometry._

/** `Dsm.locate` and the single door-pair search against the linear-scan
  * definitions they replaced, kept here verbatim as the reference. Results
  * must be equal exactly — bit for bit, signed zeros included — not within
  * a tolerance: the Cleaner's output depends on every floating-point term.
  * Points are drawn on the mall inside regions, on shared walls (door
  * positions and region edges, including signed zeros on the x = 0 wall),
  * outside the walls, and on floors without regions (−1 and 7).
  */
object LocateProps extends Properties("Locate") {

  override def overrideParameters(p: org.scalacheck.Test.Parameters): org.scalacheck.Test.Parameters =
    p.withMinSuccessfulTests(1000)

  private val dsm = Mall.dsm()

  /** The pre-`locate` definitions: per-call scans with collections. The
    * DSM itself no longer has `regionAt`, `nearestRegion` or `snap`: a
    * point's region is the region of its snap. */
  private object Ref {
    def regionAt(p: IndoorPoint): Option[Region] = {
      val hits = dsm.regionsOnFloor(p.floor).filter(_.contains(p))
      if (hits.isEmpty) None else Some(hits.minBy(_.rect.area))
    }
    def nearestRegion(p: IndoorPoint): Option[Region] =
      dsm.regionsOnFloor(p.floor) match {
        case rs if rs.isEmpty => None
        case rs               => Some(rs.minBy(_.rect.dist(p.pt)))
      }
    def snap(p: IndoorPoint): IndoorPoint =
      nearestRegion(p) match {
        case Some(r) => val q = r.rect.clamp(p.pt); IndoorPoint(q.x, q.y, p.floor)
        case None    => p
      }
    def regionAtSnapped(p: IndoorPoint): Option[Region] =
      regionAt(p).orElse(nearestRegion(p))

    private val doorIndex = dsm.doors.zipWithIndex.map { case (d, i) => d.id -> i }.toMap

    /** The door-pair search: best cost and the first pair reaching it. */
    private def pairs(a: IndoorPoint, b: IndoorPoint, ra: Region, rb: Region)
        : (Double, Option[(Int, Int)]) = {
      var best = Double.PositiveInfinity
      var bestPair: Option[(Int, Int)] = None
      for (da <- dsm.doorsOfRegion(ra.id); db <- dsm.doorsOfRegion(rb.id)) {
        val i = doorIndex(da.id); val j = doorIndex(db.id)
        val c = a.pt.dist(da.pt) + da.crossCost + dsm.doorDist(i)(j) + db.pt.dist(b.pt)
        if (c < best) { best = c; bestPair = Some((i, j)) }
      }
      (best, bestPair)
    }

    def minWalkDist(a0: IndoorPoint, b0: IndoorPoint): Double = {
      val a = snap(a0); val b = snap(b0)
      (regionAtSnapped(a), regionAtSnapped(b)) match {
        case (Some(ra), Some(rb)) if ra.id == rb.id => a.planarDist(b)
        case (Some(ra), Some(rb))                   => pairs(a, b, ra, rb)._1
        case _                                      => Double.PositiveInfinity
      }
    }

    private def doorChain(i: Int, j: Int): Vector[Int] = {
      if (dsm.doorNext(i)(j) < 0) return Vector(i)
      var cur = i
      val buf = Vector.newBuilder[Int]
      buf += cur
      while (cur != j) { cur = dsm.doorNext(cur)(j); buf += cur }
      buf.result()
    }

    def walkPathWeighted(a0: IndoorPoint, b0: IndoorPoint): Option[Vector[(IndoorPoint, Double)]] = {
      val a = snap(a0); val b = snap(b0)
      (regionAtSnapped(a), regionAtSnapped(b)) match {
        case (Some(ra), Some(rb)) if ra.id == rb.id =>
          Some(Vector((a, 0.0), (b, a.planarDist(b))))
        case (Some(ra), Some(rb)) =>
          pairs(a, b, ra, rb)._2.map { case (i, j) =>
            val steps = Vector.newBuilder[(IndoorPoint, Double)]
            steps += ((a, 0.0))
            var prev = a
            doorChain(i, j).foreach { di =>
              val d = dsm.doors(di)
              val fa = dsm.regionById(d.regionA).floor
              val fb = dsm.regionById(d.regionB).floor
              if (fa == fb) {
                val w = IndoorPoint(d.x, d.y, fa)
                steps += ((w, prev.planarDist(w) + d.crossCost))
                prev = w
              } else {
                val near = if (prev.floor == fa) fa else fb
                val far = if (near == fa) fb else fa
                val wNear = IndoorPoint(d.x, d.y, near)
                val wFar = IndoorPoint(d.x, d.y, far)
                steps += ((wNear, prev.planarDist(wNear)))
                steps += ((wFar, d.crossCost))
                prev = wFar
              }
            }
            steps += ((b, prev.planarDist(b)))
            steps.result()
          }
        case _ => None
      }
    }

    def alongPath(a: IndoorPoint, b: IndoorPoint, f: Double): IndoorPoint =
      walkPathWeighted(a, b) match {
        case None => a
        case Some(steps) =>
          val total = steps.map(_._2).sum
          if (total <= 0) return steps.last._1
          var remaining = math.min(math.max(f, 0.0), 1.0) * total
          var prev = steps.head._1
          for ((q, cost) <- steps.tail) {
            if (remaining <= cost) {
              val g = if (cost == 0) 1.0 else remaining / cost
              val xy = prev.pt.lerp(q.pt, g)
              return IndoorPoint(xy.x, xy.y, if (g < 0.5) prev.floor else q.floor)
            }
            remaining -= cost
            prev = q
          }
          steps.last._1
      }
  }

  private val mallFloor = Gen.chooseNum(0, Mall.Floors - 1)

  private val inside: Gen[IndoorPoint] = for {
    r <- Gen.oneOf(dsm.regions)
    fx <- Gen.chooseNum(0.0, 1.0); fy <- Gen.chooseNum(0.0, 1.0)
  } yield IndoorPoint(r.rect.xMin + fx * r.rect.width, r.rect.yMin + fy * r.rect.height, r.floor)

  private val onWall: Gen[IndoorPoint] = Gen.oneOf(
    Gen.oneOf(dsm.doors).flatMap(d => mallFloor.map(IndoorPoint(d.x, d.y, _))),
    for {
      r <- Gen.oneOf(dsm.regions)
      f <- Gen.chooseNum(0.0, 1.0)
      side <- Gen.chooseNum(0, 3)
    } yield {
      val x = r.rect.xMin + f * r.rect.width; val y = r.rect.yMin + f * r.rect.height
      side match {
        case 0 => IndoorPoint(r.rect.xMin, y, r.floor)
        case 1 => IndoorPoint(r.rect.xMax, y, r.floor)
        case 2 => IndoorPoint(x, r.rect.yMin, r.floor)
        case _ => IndoorPoint(x, r.rect.yMax, r.floor)
      }
    },
    for {
      x <- Gen.oneOf(0.0, -0.0); y <- Gen.chooseNum(0.0, Mall.FloorDepth); f <- mallFloor
    } yield IndoorPoint(x, y, f))

  private val outside: Gen[IndoorPoint] = for {
    x <- Gen.chooseNum(-40.0, Mall.FloorWidth + 40.0)
    y <- Gen.oneOf(Gen.chooseNum(-40.0, -1e-9), Gen.chooseNum(Mall.FloorDepth + 1e-9, 80.0))
    f <- mallFloor
  } yield IndoorPoint(x, y, f)

  private val offFloor: Gen[IndoorPoint] = for {
    p <- Gen.oneOf(inside, outside); f <- Gen.oneOf(-1, Mall.Floors)
  } yield p.copy(floor = f)

  private val point: Gen[IndoorPoint] =
    Gen.frequency(4 -> inside, 2 -> onWall, 2 -> outside, 1 -> offFloor)

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)
  private def exact(p: IndoorPoint): (Long, Long, Int) = (bits(p.x), bits(p.y), p.floor)

  property("locate == (snap, regionAtSnapped of the snap)") = forAll(point) { p =>
    val l = dsm.locate(p)
    val s = Ref.snap(p)
    exact(l.point) == exact(s) && l.region == Ref.regionAtSnapped(s)
  }

  property("regionAtSnapped == reference region of the snap") = forAll(point) { p =>
    dsm.regionAtSnapped(p) == Ref.regionAtSnapped(Ref.snap(p))
  }

  property("regionAtSnapped == locate(p).region") = forAll(point) { p =>
    dsm.regionAtSnapped(p) == dsm.locate(p).region
  }

  property("minWalkDist == reference") = forAll(point, point) { (a, b) =>
    val d = bits(dsm.minWalkDist(a, b))
    d == bits(Ref.minWalkDist(a, b)) && d == bits(dsm.minWalkDist(dsm.locate(a), dsm.locate(b)))
  }

  property("walkPathWeighted == reference; walk.dist == minWalkDist") = forAll(point, point) {
    (a, b) =>
      dsm.walk(a, b).map(_.steps.map(s => (exact(s.point), bits(s.cost)))) ==
        Ref.walkPathWeighted(a, b).map(_.map { case (q, c) => (exact(q), bits(c)) }) &&
        bits(dsm.walk(a, b).fold(Double.PositiveInfinity)(_.dist)) == bits(dsm.minWalkDist(a, b))
  }

  property("alongPath == reference") = forAll(point, point, Gen.chooseNum(-0.1, 1.1)) {
    (a, b, f) => exact(dsm.alongPath(a, b, f)) == exact(Ref.alongPath(a, b, f))
  }
}
