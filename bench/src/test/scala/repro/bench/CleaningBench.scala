package repro.bench

import org.apache.spark.sql.functions._
import repro.SqlReference
import repro.core.Cleaner
import repro.eval.Metrics
import repro.gen.SynthIndoor

/** T2 — Cleaning effectiveness at SF=0.1: positioning error and error-class
  * counts, raw vs cleaned, plus the repair breakdown. */
class CleaningBench extends BenchBase {

  test("T2: cleaning effectiveness, raw vs cleaned") {
    import spark.implicits._
    val cfg = cfgFor(nDevices = (5000 * BenchSf).toInt)
    val b = spark.sparkContext.broadcast(dsm)

    val raw = SynthIndoor.raw(spark, dsm, cfg).cache()
    val nRaw = raw.count()
    val gt = SynthIndoor.groundTruth(spark, dsm, cfg).cache()

    val (cleaned, cleanMs) = timeMs {
      val c = Cleaner.clean(spark, raw, b).cache()
      c.count()
      c
    }

    val rawErr = Metrics.posError(spark, raw.toDF(), gt)
    val cleanErr = Metrics.posError(spark, cleaned.toDF().drop("repair"), gt)
    val repairs = SqlReference.repairStats(cleaned).collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap

    // Euclidean speed-violation counts before/after (same DSM-free metric
    // on both sides, so the comparison is fair).
    def violations(df: org.apache.spark.sql.DataFrame): Long =
      SqlReference.euclidSpeeds(df).filter(col("euclid_speed") > 3.0).count()
    val vRaw = violations(raw.toDF())
    val vClean = violations(cleaned.toDF().drop("repair"))

    banner("T2: Cleaning layer effectiveness (SF=0.1)")
    println(f"${"metric"}%-34s ${"raw"}%12s ${"cleaned"}%12s")
    println(f"${"records"}%-34s $nRaw%12d ${cleaned.count()}%12d")
    println(f"${"mean position error (m)"}%-34s ${rawErr.meanErr}%12.2f ${cleanErr.meanErr}%12.2f")
    println(f"${"p95 position error (m)"}%-34s ${rawErr.p95Err}%12.2f ${cleanErr.p95Err}%12.2f")
    println(f"${"wrong-floor records"}%-34s ${rawErr.wrongFloor}%12d ${cleanErr.wrongFloor}%12d")
    println(f"${"euclid speed violations (>3 m/s)"}%-34s $vRaw%12d $vClean%12d")
    println(s"repairs: none=${repairs.getOrElse("none", 0L)} " +
      s"floor=${repairs.getOrElse("floor", 0L)} interp=${repairs.getOrElse("interp", 0L)} " +
      s"reanchor=${repairs.getOrElse("reanchor", 0L)}")
    println(s"cleaning wall time: $cleanMs ms for $nRaw records " +
      f"(${nRaw * 1000.0 / math.max(1, cleanMs)}%.0f rec/s)")

    QualityLog.record("T2",
      "records" -> nRaw, "cleaned_records" -> cleaned.count(),
      "raw_pos_error" -> Map("n" -> rawErr.n, "mean_m" -> rawErr.meanErr, "p95_m" -> rawErr.p95Err,
                             "wrong_floor" -> rawErr.wrongFloor),
      "cleaned_pos_error" -> Map("n" -> cleanErr.n, "mean_m" -> cleanErr.meanErr,
                                 "p95_m" -> cleanErr.p95Err, "wrong_floor" -> cleanErr.wrongFloor),
      "raw_speed_violations" -> vRaw, "cleaned_speed_violations" -> vClean,
      "repairs" -> repairs)

    // Shape assertions: cleaning must reduce every error class.
    assert(cleaned.count() == nRaw)
    assert(cleanErr.meanErr < rawErr.meanErr)
    assert(cleanErr.wrongFloor < rawErr.wrongFloor / 2,
      s"floor correction: ${rawErr.wrongFloor} -> ${cleanErr.wrongFloor}")
    assert(vClean < vRaw / 2, s"speed violations: $vRaw -> $vClean")
    assert(repairs.getOrElse("floor", 0L) > 0 && repairs.getOrElse("interp", 0L) > 0)

    raw.unpersist(); gt.unpersist(); cleaned.unpersist()
  }
}
