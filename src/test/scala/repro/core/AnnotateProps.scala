package repro.core

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll
import repro.core.Schema._
import repro.gen.Mall
import repro.indoor.Geometry._
import repro.indoor.Region
import scala.util.Try

/** `Features.of` and `SpatialMatcher.matchSnippet` against the
  * collection-based definitions they replaced, kept here verbatim as the
  * reference. Results must be equal exactly: features bit for bit (signed
  * zeros and NaN included), and where the reference throws, the same
  * exception class; records come as a Vector and as a List, whose sums
  * the collections library folds differently. Snippets have one record or
  * many, repeated points, duplicate timestamps, NaN, ±0.0 and ±∞
  * coordinates; the matcher also sees off-map records and deliberate ties
  * (two equal-area shops with equal votes, in either order).
  */
object AnnotateProps extends Properties("Annotate") {

  override def overrideParameters(p: org.scalacheck.Test.Parameters): org.scalacheck.Test.Parameters =
    p.withMinSuccessfulTests(1000)

  private val dsm = Mall.dsm()

  /** The pre-one-pass definitions. */
  private object Ref {
    def featuresOf(deviceId: String, snippetId: Int, records: Seq[CleanRecord]): SnippetFeatures = {
      require(records.nonEmpty, "features of empty snippet")
      val pts = records.map(r => Pt(r.x, r.y))
      val duration = math.max(1L, records.last.ts - records.head.ts).toDouble

      val pathLen = pathLength(pts)
      val avgSpeed = pathLen / duration
      val maxSpeed = records.sliding(2).collect {
        case Seq(a, b) if b.ts > a.ts => Pt(a.x, a.y).dist(Pt(b.x, b.y)) / (b.ts - a.ts)
      }.foldLeft(0.0)(math.max)

      val cx = pts.map(_.x).sum / pts.size
      val cy = pts.map(_.y).sum / pts.size
      val locVariance = pts.map(p => { val dx = p.x - cx; val dy = p.y - cy; dx * dx + dy * dy }).sum / pts.size

      val bbox = Rect.bound(pts)
      val coveringRange = math.hypot(bbox.width, bbox.height)

      val moves = pts.foldLeft(Vector.empty[Pt]) {
        case (acc, p) if acc.isEmpty || acc.last.dist(p) >= Features.TurnMinStep => acc :+ p
        case (acc, _)                                                            => acc
      }
      val headings = moves.sliding(2).collect { case Vector(a, b) if a != b => heading(a, b) }.toVector
      val nTurns = headings.sliding(2).count {
        case Vector(h1, h2) => turnAngle(h1, h2) >= Features.TurnMinAngle
        case _              => false
      }

      SnippetFeatures(deviceId, snippetId, duration, pathLen, avgSpeed, maxSpeed,
                      locVariance, coveringRange, nTurns.toDouble, records.size.toDouble)
    }

    def matchSnippet(s: Snippet): Option[Region] = {
      val votes = s.records.flatMap(r => dsm.regionAtSnapped(r.point)).groupBy(_.id)
      if (votes.isEmpty) None
      else Some(votes.maxBy { case (_, v) => (v.size, -v.head.rect.area) }._2.head)
    }
  }

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  private def exact(f: SnippetFeatures): (String, Int, Seq[Long]) =
    (f.deviceId, f.snippetId, f.vector.toSeq.map(bits))

  // ------------------------------------------------------------ features

  private val special: Gen[Double] =
    Gen.oneOf(0.0, -0.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  /** A coordinate: mostly ordinary, sometimes a signed zero or non-finite. */
  private val coord: Gen[Double] = Gen.frequency(20 -> Gen.chooseNum(-5.0, 105.0), 1 -> special)

  /** Points drawn from a small pool (so points repeat) or fresh. */
  private def scattered(n: Int): Gen[List[(Double, Double)]] = for {
    pool <- Gen.listOfN(3, Gen.zip(coord, coord))
    pts <- Gen.listOfN(n, Gen.frequency(1 -> Gen.oneOf(pool), 2 -> Gen.zip(coord, coord),
                                        1 -> Gen.zip(Gen.chooseNum(-1.0, 1.0), Gen.chooseNum(-1.0, 1.0))))
  } yield pts

  /** A walk of steps around the jitter threshold, so points are kept and
    * skipped for turn counting in every pattern. */
  private def walk(n: Int): Gen[List[(Double, Double)]] =
    Gen.listOfN(n, Gen.zip(Gen.chooseNum(-1.2, 1.2), Gen.chooseNum(-1.2, 1.2))).map(
      _.scanLeft((50.0, 20.0)) { case ((x, y), (dx, dy)) => (x + dx, y + dy) }.tail)

  /** Snippet records: scattered or walking points, time steps of 0
    * (duplicate timestamps) to 30 s. */
  private val featureRecords: Gen[Vector[CleanRecord]] = for {
    n <- Gen.frequency(1 -> Gen.const(1), 4 -> Gen.chooseNum(2, 40))
    pts <- Gen.oneOf(scattered(n), walk(n))
    steps <- Gen.listOfN(n, Gen.oneOf(0L, 1L, 5L, 30L))
  } yield pts.zip(steps.scanLeft(1483228800L)(_ + _)).map { case ((x, y), ts) =>
    CleanRecord("dev", ts, x, y, 2, "none")
  }.toVector

  property("Features.of == reference") = forAll(featureRecords, Gen.chooseNum(0, 50)) { (rs, id) =>
    Seq[Seq[CleanRecord]](rs, rs.toList).forall { in =>
      val got = Try(Features.of("dev", id, in))
      val ref = Try(Ref.featuresOf("dev", id, in))
      got.failed.toOption.map(_.getClass) == ref.failed.toOption.map(_.getClass) &&
        got.toOption.map(exact) == ref.toOption.map(exact)
    }
  }

  // ------------------------------------------------------------- matcher

  private def in(r: Region): Gen[(Double, Double, Int)] = for {
    fx <- Gen.chooseNum(0.0, 1.0); fy <- Gen.chooseNum(0.0, 1.0)
  } yield (r.rect.xMin + fx * r.rect.width, r.rect.yMin + fy * r.rect.height, r.floor)

  /** A record location: inside a region, on a door or the x = 0 wall with
    * either signed zero, outside the walls, off the map (floors −1 and 7,
    * NaN). */
  private val location: Gen[(Double, Double, Int)] = Gen.frequency(
    6 -> Gen.oneOf(dsm.regions).flatMap(in),
    1 -> Gen.oneOf(dsm.doors).flatMap(d => Gen.chooseNum(0, Mall.Floors - 1).map((d.x, d.y, _))),
    1 -> Gen.zip(Gen.oneOf(0.0, -0.0), Gen.chooseNum(0.0, Mall.FloorDepth), Gen.chooseNum(0, Mall.Floors - 1)),
    1 -> Gen.zip(Gen.chooseNum(-40.0, 140.0), Gen.chooseNum(-40.0, -1e-9), Gen.chooseNum(0, Mall.Floors - 1)),
    1 -> Gen.zip(Gen.chooseNum(0.0, 100.0), Gen.chooseNum(0.0, 40.0), Gen.oneOf(-1, Mall.Floors)),
    1 -> Gen.zip(Gen.const(Double.NaN), Gen.chooseNum(0.0, 40.0), Gen.chooseNum(0, Mall.Floors - 1)))

  private def snippet(locs: Seq[(Double, Double, Int)]): Snippet =
    Snippet("dev", 0, dense = false, locs.zipWithIndex.map { case ((x, y, f), i) =>
      CleanRecord("dev", i * 5L, x, y, f, "none")
    })

  /** Records in one region, then a few strays anywhere. */
  private val mostlyOne: Gen[Snippet] = for {
    r <- Gen.oneOf(dsm.regions)
    n <- Gen.chooseNum(1, 20)
    home <- Gen.listOfN(n, in(r))
    strays <- Gen.chooseNum(0, 3).flatMap(Gen.listOfN(_, location))
    locs <- Gen.pick(n + strays.size, home ++ strays)
  } yield snippet(locs.toSeq)

  private val anywhere: Gen[Snippet] =
    Gen.chooseNum(1, 12).flatMap(Gen.listOfN(_, location)).map(snippet)

  /** Equal votes for two shops of equal area, interleaved or in blocks. */
  private val shops = dsm.regions.filter(_.kind == "room")
  private val tie: Gen[Snippet] = for {
    a <- Gen.oneOf(shops)
    b <- Gen.oneOf(shops.filter(s => s.id != a.id && s.rect.area == a.rect.area))
    k <- Gen.chooseNum(1, 5)
    as <- Gen.listOfN(k, in(a)); bs <- Gen.listOfN(k, in(b))
    shuffled <- Gen.pick(2 * k, as ++ bs)
    locs <- Gen.oneOf(as ++ bs, bs ++ as, shuffled.toSeq)
  } yield snippet(locs)

  property("matchSnippet == reference") =
    forAll(Gen.frequency(2 -> mostlyOne, 2 -> anywhere, 1 -> tie)) { s =>
      SpatialMatcher.matchSnippet(dsm, s) == Ref.matchSnippet(s)
    }
}
