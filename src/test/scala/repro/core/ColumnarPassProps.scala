package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.core.Knowledge.Summary
import repro.core.Schema._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import repro.indoor.Geometry.IndoorPoint

/** What the columnar per-device pass carries instead of recomputing:
  *
  *  - each cleaned record's region index is the one point-location rule,
  *    `Dsm.regionAtSnapped` of the record's point (-1 off the map), on
  *    dirty simulated tracks and on hostile ones (unknown floors, NaN and
  *    ±∞ coordinates, duplicate timestamps, shuffled order, every record
  *    off the map);
  *  - the Cleaner's record order is `ByTsThenFields` with the first record
  *    of each timestamp kept, equal records in input order, for timestamps
  *    that span less than 2^31 s and for any `Long`;
  *  - a block's knowledge summary is `Summary.ofDevice` of each of its
  *    devices' semantics, merged.
  */
object ColumnarPassProps extends Properties("ColumnarPass") {

  override def overrideParameters(p: org.scalacheck.Test.Parameters): org.scalacheck.Test.Parameters =
    p.withMinSuccessfulTests(300)

  private val dsm = Mall.dsm()

  // ------------------------------------------------------ carried regions

  private val dirtyCfg = SimConfig(nDevices = 10, floorErrProb = 0.08, outlierProb = 0.05,
                                   gapProb = 1.0, gapMinSec = 120, gapMaxSec = 420)
  private val tracks = (0 until dirtyCfg.nDevices).map(SynthIndoor.simulate(dsm, dirtyCfg, _).raw)

  private val nonFinite = Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  /** The record moved off the map: an unknown floor or a non-finite x or y. */
  private def offMap(r: PosRecord): Gen[PosRecord] = Gen.oneOf(
    Gen.oneOf(-1, Mall.Floors, 99).map(f => r.copy(floor = f)),
    nonFinite.map(v => r.copy(x = v)),
    nonFinite.map(v => r.copy(y = v)))

  /** A dirty track, whole or cut; then as it is, corrupted (records off the
    * map, timestamps repeated, order shuffled) or every record off the map. */
  private val device: Gen[Vector[PosRecord]] = for {
    t <- Gen.oneOf(tracks)
    from <- Gen.chooseNum(0, t.size - 1)
    rs <- Gen.frequency(2 -> Gen.const(t), 3 -> Gen.chooseNum(1, 80).map(n => t.slice(from, from + n)))
    q <- Gen.oneOf(0.0, 0.05, 0.3, 1.0)
    bad <- Gen.sequence[Vector[PosRecord], PosRecord](rs.map(r =>
      Gen.prob(q).flatMap(if (_) offMap(r) else Gen.const(r))))
    dups <- Gen.sequence[Vector[PosRecord], PosRecord](rs.take(10).map(r =>
      Gen.oneOf(Gen.const(r), Gen.chooseNum(-5.0, 5.0).map(d => r.copy(x = r.x + d)), offMap(r))))
    n <- Gen.chooseNum(0, dups.size)
    seed <- Gen.long
  } yield new scala.util.Random(seed).shuffle(bad ++ dups.take(n))

  /** A record's fields, doubles as raw bits (a NaN equals itself). */
  private def exact(r: CleanRecord) =
    (r.deviceId, r.ts, java.lang.Double.doubleToRawLongBits(r.x), java.lang.Double.doubleToRawLongBits(r.y),
     r.floor, r.repair)

  property("each cleaned record carries the region regionAtSnapped gives its point") = forAll(device) { rs =>
    val t = Cleaner.cleanTrack(dsm, Track.of(rs))
    val rule = t.ts.indices.map { i =>
      dsm.regionAtSnapped(IndoorPoint(t.x(i), t.y(i), t.floor(i))).fold(-1)(r => dsm.regionIndex(r.id))
    }
    Prop(t.region.toSeq == rule) :| "carried == regionAtSnapped" &&
      Prop(t.length == rs.map(_.ts).distinct.size) :| "one record per timestamp" &&
      Prop(rs.isEmpty || t.records(rs.head.deviceId).map(exact) == Cleaner.cleanDevice(dsm, rs).map(exact)) :|
        "the Seq adapter's records"
  }

  // -------------------------------------------------------- record order

  private val special = Gen.oneOf(0.0, -0.0, Double.NaN, Double.PositiveInfinity)

  /** Records with many shared timestamps (equal or not in the other
    * fields), over a short span or over any `Long`. */
  private val raw: Gen[Vector[PosRecord]] = for {
    wide <- Gen.prob(0.3)
    pool <- Gen.listOfN(6, if (wide) Gen.oneOf(Gen.chooseNum(Long.MinValue, Long.MaxValue),
                                               Gen.oneOf(Long.MinValue, Long.MaxValue, 0L))
                           else Gen.chooseNum(WeekStart, WeekStart + 600))
    n <- Gen.chooseNum(0, 40)
    rs <- Gen.listOfN(n, for {
      ts <- Gen.oneOf(pool)
      f <- Gen.chooseNum(0, 2)
      x <- Gen.frequency(5 -> Gen.oneOf(1.0, 2.0), 1 -> special)
      y <- Gen.frequency(5 -> Gen.oneOf(1.0, 2.0), 1 -> special)
    } yield PosRecord("d", ts, x, y, f))
  } yield rs.toVector

  property("the Cleaner keeps the first record of each timestamp in ByTsThenFields order") = forAll(raw) { rs =>
    val sorted = rs.indices.sortBy(rs(_))(Cleaner.ByTsThenFields)
    val expected = sorted.zipWithIndex.collect { case (i, k) if k == 0 || rs(sorted(k - 1)).ts != rs(i).ts => i }
    Cleaner.distinctByTs(Track.of(rs)).toSeq == expected
  }

  // ---------------------------------------------------- block summaries

  private def semantics(id: String): Gen[(String, Vector[Semantic])] = for {
    n <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 4 -> Gen.chooseNum(2, 25))
    regions <- Gen.listOfN(n, Gen.frequency(3 -> Gen.oneOf(dsm.regions.take(4)), 1 -> Gen.oneOf(dsm.regions)))
    events <- Gen.listOfN(n, Gen.oneOf(Stay, PassBy))
    steps <- Gen.listOfN(2 * n, Gen.chooseNum(0L, 900L))
  } yield {
    val times = steps.scanLeft(WeekStart)(_ + _).tail
    id -> regions.zip(events).zipWithIndex.map { case ((r, e), i) =>
      Semantic(id, i, e, r.tag, r.id, times(2 * i), times(2 * i + 1), source = "annotated")
    }.toVector
  }

  private val partition: Gen[Vector[(String, Vector[Semantic])]] = for {
    n <- Gen.chooseNum(0, 10)
    devs <- Gen.sequence[Vector[(String, Vector[Semantic])], (String, Vector[Semantic])](
      (0 until n).map(i => semantics(f"dev-$i%02d")))
  } yield devs

  property("a block's summary is its devices' summaries merged") = forAll(partition) { devs =>
    SemanticsBlock.encode(dsm, devs).summary(dsm) == Summary.mergeAll(devs.map(d => Summary.ofDevice(d._2)))
  }
}
