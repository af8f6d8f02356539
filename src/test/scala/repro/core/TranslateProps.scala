package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.forAllNoShrink
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.core.Composed.ordered
import repro.core.Schema._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import repro.ml.LogisticRegression
import scala.util.{Failure, Success, Try}

/** `Translator.translate` on random populations: a mix of well-formed
  * simulated devices and hostile ones (cut tracks, records on unknown
  * floors or at non-finite coordinates, duplicate timestamps, devices with
  * every record off the map), in any row order and spread over 1 to 7
  * input partitions. The translation must not throw; its knowledge and
  * semantics equal the per-device functions composed without Spark, and it
  * keeps one cleaned record per distinct (device, ts). Each case is a few
  * Spark jobs, so the property runs a few dozen cases.
  */
class TranslateProps extends SparkSpec {

  private lazy val dsm = Mall.dsm()

  /** A dirty feed with a hole in half the devices. */
  private lazy val cfg = SimConfig(nDevices = 12, seed = 5L, floorErrProb = 0.08, outlierProb = 0.05,
                                   gapProb = 0.5, gapMinSec = 120, gapMaxSec = 420)
  private lazy val tracks = (0 until cfg.nDevices).map(SynthIndoor.simulate(dsm, cfg, _).raw)

  /** Fitted to the snippet features of the first tracks (label: dense), so
    * both events occur. */
  private lazy val model = {
    val train = tracks.take(4).flatMap(t => Splitter.split(dsm, Cleaner.cleanDevice(dsm, t)))
    EventModel(LogisticRegression.fit(train.map(Features.ofSnippet(_).vector),
                                      train.map(s => if (s.dense) 1 else 0)))
  }

  private val offMap: PosRecord => Gen[PosRecord] = r => Gen.oneOf(
    Gen.oneOf(-1, Mall.Floors, 99).map(f => r.copy(floor = f)),
    Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).map(v => r.copy(x = v)),
    Gen.const(r.copy(y = Double.NaN)))

  /** Device `id` made from a track: cut to a window or one record, some
    * or all records off the map, some timestamps repeated. */
  private def hostile(id: String): Gen[Vector[PosRecord]] = for {
    t <- Gen.oneOf(tracks)
    from <- Gen.chooseNum(0, t.size - 1)
    rs <- Gen.frequency(2 -> Gen.const(t), 2 -> Gen.chooseNum(2, 60).map(n => t.slice(from, from + n)),
                        1 -> Gen.const(t.slice(from, from + 1)))
    q <- Gen.oneOf(0.05, 0.3, 1.0)
    bad <- Gen.sequence[Vector[PosRecord], PosRecord](rs.map(r =>
      Gen.prob(q).flatMap(if (_) offMap(r) else Gen.const(r))))
    dups <- Gen.sequence[Vector[PosRecord], PosRecord](rs.take(6).map(r =>
      Gen.oneOf(Gen.const(r), Gen.chooseNum(-5.0, 5.0).map(d => r.copy(x = r.x + d)), offMap(r))))
  } yield (bad ++ dups).map(_.copy(deviceId = id))

  /** `n` devices, some well-formed simulated tracks, the rest hostile. */
  private def population(n: Int): Gen[Vector[PosRecord]] = for {
    wellFormed <- Gen.chooseNum(0, n)
    picked <- Gen.pick(wellFormed min tracks.size, tracks.indices)
    bad <- Gen.sequence[Vector[Vector[PosRecord]], Vector[PosRecord]](
      (0 until n - picked.size).map(j => hostile(s"hostile-$j")))
  } yield picked.toVector.flatMap(i => tracks(i)) ++ bad.flatten

  /** What is wrong with the translation of `rows` split over `partitions`
    * input partitions; empty when nothing is. */
  private def problems(rows: Seq[PosRecord], partitions: Int): Seq[String] = {
    import spark.implicits._
    val shuffled = new scala.util.Random(rows.size).shuffle(rows)
    Try {
      val r = Translator.translate(spark, shuffled.toDS().repartition(partitions), dsm, model)
      try (r.knowledge, r.semantics.collect().toSeq, r.cleaned.count()) finally r.unpersist()
    } match {
      case Failure(e) => Seq(s"threw $e")
      case Success((km, sems, cleaned)) =>
        val (expectedKm, expected) = Composed(dsm, rows, model)
        val distinct = rows.map(r => (r.deviceId, r.ts)).distinct.size
        Seq((km == expectedKm) -> "knowledge differs",
            (ordered(sems) == ordered(expected)) -> "semantics differ",
            (cleaned == distinct) -> s"cleaned $cleaned records, expected $distinct")
          .collect { case (false, p) => p }
    }
  }

  test("translate equals the per-device functions composed without Spark on random mixed populations") {
    val cases = for {
      n <- Gen.frequency(1 -> Gen.const(8), 3 -> Gen.chooseNum(0, 12))
      rows <- population(n)
      partitions <- Gen.oneOf(1, 3, 7)
    } yield (rows, partitions)
    val prop = forAllNoShrink(cases) { case (rows, partitions) =>
      val ps = problems(rows, partitions)
      Prop(ps.isEmpty) :| ps.mkString("; ")
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(24).withWorkers(1), prop)
    assert(result.passed, result.status)
  }

  test("translate of an 8-device population, the skew case, equals the composition") {
    val rows = population(8).apply(Gen.Parameters.default, Seed(8L)).get
    assert(rows.map(_.deviceId).distinct.size == 8)
    assert(problems(rows, 3) == Seq.empty)
  }
}
