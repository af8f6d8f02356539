package repro.bench

import repro.baseline.StopMove
import repro.config.EventEditor
import repro.core._
import repro.core.Schema._
import repro.eval.Metrics
import repro.gen.SynthIndoor

/** T3 — Annotation quality at SF=0.1: per-second event P/R/F1 and region
  * accuracy, TRIPS (cleaned + learned events + DSM matching) vs the
  * stop/move baseline ([12]-style, no indoor topology). */
class AnnotationBench extends BenchBase {

  test("T3: annotation quality, TRIPS vs stop/move baseline") {
    val cfg = cfgFor(nDevices = (5000 * BenchSf).toInt)
    val (model, trainDevs) = EventEditor.trainOnSimulation(spark, dsm, cfg, trainFraction = 0.2)

    val evalRaw = SynthIndoor.raw(spark, dsm, cfg)
      .filter(r => !trainDevs.contains(r.deviceId)).cache()

    val b = spark.sparkContext.broadcast(dsm)
    val trips = Translator.translate(spark, evalRaw, dsm, model).semantics.cache()
    val base = StopMove.annotate(spark, evalRaw, b).cache()

    val evalTruthDs = SynthIndoor.truthSemantics(spark, dsm, cfg)
      .filter(s => !trainDevs.contains(s.deviceId)).cache()
    val aT = Metrics.agreement(spark, trips, evalTruthDs)
    val aB = Metrics.agreement(spark, base, evalTruthDs)

    banner("T3: Annotation quality (SF=0.1, per-second scoring)")
    println(f"${"metric"}%-28s ${"TRIPS"}%10s ${"StopMove"}%10s")
    println(f"${"coverage"}%-28s ${aT.coverage}%10.3f ${aB.coverage}%10.3f")
    println(f"${"event accuracy"}%-28s ${aT.eventAccuracy}%10.3f ${aB.eventAccuracy}%10.3f")
    println(f"${"region accuracy"}%-28s ${aT.regionAccuracy}%10.3f ${aB.regionAccuracy}%10.3f")
    println(f"${"event+region accuracy"}%-28s ${aT.bothAccuracy}%10.3f ${aB.bothAccuracy}%10.3f")
    Seq(Stay, PassBy).foreach { e =>
      val (pt, rt, ft) = aT.prf(e); val (pb, rb, fb) = aB.prf(e)
      println(f"${s"$e P/R/F1"}%-28s ${f"$pt%.2f/$rt%.2f/$ft%.2f"}%16s ${f"$pb%.2f/$rb%.2f/$fb%.2f"}%16s")
    }

    def scores(a: Metrics.Agreement) = Map(
      "truth_s" -> a.truthSeconds, "covered_s" -> a.coveredSeconds, "event_ok_s" -> a.eventCorrect,
      "region_ok_s" -> a.regionCorrect, "both_ok_s" -> a.bothCorrect,
      "coverage" -> a.coverage, "event_acc" -> a.eventAccuracy, "region_acc" -> a.regionAccuracy,
      "both_acc" -> a.bothAccuracy,
      "prf" -> a.prf.map { case (e, (p, r, f)) => e -> Seq(p, r, f) })
    QualityLog.record("T3", "trips" -> scores(aT), "stop_move" -> scores(aB))

    // Shape: TRIPS wins on region accuracy (topology-aware matching) and
    // combined accuracy; the learned model beats velocity thresholding on
    // the event F1 of at least the stay class.
    assert(aT.regionAccuracy > aB.regionAccuracy,
      s"region: TRIPS ${aT.regionAccuracy} vs base ${aB.regionAccuracy}")
    assert(aT.bothAccuracy > aB.bothAccuracy)
    assert(aT.prf(Stay)._3 > aB.prf(Stay)._3 - 0.05)

    trips.unpersist(); base.unpersist(); evalRaw.unpersist(); evalTruthDs.unpersist()
  }
}
