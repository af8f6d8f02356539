package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.core.Schema._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import repro.ml.LogisticRegression
import scala.util.{Failure, Success, Try}

/** One device's records through `cleanDevice → annotateDevice →
  * complementDevice`, on what a real positioning feed sends: simulated
  * dirty tracks, whole or cut down to one record or none, with records on
  * unknown floors, NaN and ±∞ coordinates, duplicate timestamps, shuffled
  * order, and devices whose every record is off the map. The chain must not
  * throw; it keeps one cleaned record per distinct timestamp; its semantics
  * are ordered and non-overlapping, name DSM regions only, and the inferred
  * ones lie strictly inside holes between annotated ones.
  */
object HostileFeedProps extends Properties("HostileFeed") {

  override def overrideParameters(p: org.scalacheck.Test.Parameters): org.scalacheck.Test.Parameters =
    p.withMinSuccessfulTests(500)

  private val dsm = Mall.dsm()
  private val regionIds = dsm.regions.map(_.id).toSet

  /** T4's gap settings with a dirtier feed: a hole in every device. */
  private val cfg = SimConfig(nDevices = 12, floorErrProb = 0.08, outlierProb = 0.05,
                              gapProb = 1.0, gapMinSec = 120, gapMaxSec = 420)
  private val tracks = (0 until cfg.nDevices).map(SynthIndoor.simulate(dsm, cfg, _).raw)

  /** Fitted to the snippet features of the first tracks (label: dense), so
    * both events occur; the knowledge is merged from all tracks. */
  private val (model, km) = {
    val cleaned = tracks.map(Cleaner.cleanDevice(dsm, _))
    val train = cleaned.take(4).flatMap(Splitter.split(dsm, _))
    val m = EventModel(LogisticRegression.fit(train.map(Features.ofSnippet(_).vector),
                                              train.map(s => if (s.dense) 1 else 0)))
    (m, Knowledge.Summary.mergeAll(cleaned.map(c => Knowledge.Summary.ofDevice(
      Annotator.annotateDevice(dsm, m, c)))).toModel(0.5))
  }

  private val nonFinite = Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
  private val unknownFloor = Gen.oneOf(-1, Mall.Floors, 99)

  /** The record moved off the map: an unknown floor or a non-finite x or y. */
  private def offMap(r: PosRecord): Gen[PosRecord] = Gen.oneOf(
    unknownFloor.map(f => r.copy(floor = f)),
    nonFinite.map(v => r.copy(x = v)),
    nonFinite.map(v => r.copy(y = v)))

  /** A track, whole or cut to a window, one record or none. */
  private val base: Gen[Vector[PosRecord]] = for {
    t <- Gen.oneOf(tracks)
    from <- Gen.chooseNum(0, t.size - 1)
    cut <- Gen.frequency(4 -> Gen.const(t), 4 -> Gen.chooseNum(2, 60).map(n => t.slice(from, from + n)),
                         1 -> Gen.const(t.slice(from, from + 1)), 1 -> Gen.const(Vector.empty))
  } yield cut

  /** Some records off the map, some timestamps repeated (the copy exact or
    * moved), the order shuffled. */
  private val corrupted: Gen[Vector[PosRecord]] = for {
    rs <- base
    q <- Gen.oneOf(0.0, 0.05, 0.3)
    bad <- Gen.sequence[Vector[PosRecord], PosRecord](rs.map(r =>
      Gen.frequency(1 -> offMap(r), 3 -> Gen.const(r)).flatMap(o => Gen.prob(q).map(if (_) o else r))))
    dups <- Gen.sequence[Vector[PosRecord], PosRecord](rs.take(8).map(r =>
      Gen.oneOf(Gen.const(r), Gen.chooseNum(-5.0, 5.0).map(d => r.copy(x = r.x + d)), offMap(r))))
    n <- Gen.chooseNum(0, dups.size)
    order <- Gen.oneOf(true, false)
  } yield {
    val all = bad ++ dups.take(n)
    if (order) all else new scala.util.Random(all.size).shuffle(all)
  }

  /** Every record off the map. */
  private val allOffMap: Gen[Vector[PosRecord]] = for {
    rs <- base
    out <- Gen.oneOf(
      unknownFloor.map(f => rs.map(_.copy(floor = f))),
      Gen.const(rs.map(_.copy(x = Double.NaN))),
      Gen.sequence[Vector[PosRecord], PosRecord](rs.map(offMap)))
  } yield out

  private val device: Gen[Vector[PosRecord]] =
    Gen.frequency(2 -> base, 4 -> corrupted, 2 -> allOffMap)

  /** `ss` (one device's complemented semantics) violates no invariant of
    * `annotated` (its semantics before complementing). */
  private def wellFormed(annotated: Seq[Semantic], ss: Seq[Semantic]): Prop = {
    val ann = annotated.sortBy(_.tStart)
    val holes = ann.zip(ann.drop(1))
    Prop(ss.map(_.seqNo) == ss.indices) :| "seqNo" &&
    Prop(ss.zip(ss.drop(1)).forall { case (a, b) => a.tEnd < b.tStart }) :| "ordered, non-overlapping" &&
    Prop(ss.forall(s => s.tStart <= s.tEnd && regionIds.contains(s.regionId))) :| "regions in the DSM" &&
    Prop(ss.filter(_.source != "inferred").map(_.copy(seqNo = 0)) == ann.map(_.copy(seqNo = 0))) :| "annotated kept" &&
    Prop(ss.filter(_.source == "inferred").forall(s =>
      holes.exists { case (a, b) => a.tEnd < s.tStart && s.tEnd < b.tStart })) :| "inferred inside holes"
  }

  property("clean → annotate → complement holds on a hostile feed") = forAll(device) { rs =>
    Try {
      val cleaned = Cleaner.cleanDevice(dsm, rs)
      val annotated = Annotator.annotateDevice(dsm, model, cleaned)
      (cleaned, annotated, Complementor.complementDevice(dsm, km, annotated))
    } match {
      case Failure(e) => Prop.falsified :| s"threw $e"
      case Success((cleaned, annotated, ss)) =>
        val onMap = rs.exists(r => dsm.regionAtSnapped(r.point).isDefined)
        Prop(cleaned.size == rs.map(_.ts).distinct.size) :| "one cleaned record per timestamp" &&
        Prop(onMap || ss.isEmpty) :| "an off-map device has no semantics" &&
        wellFormed(annotated, ss)
    }
  }
}
