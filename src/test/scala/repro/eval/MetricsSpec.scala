package repro.eval

import repro.SparkSpec
import repro.core.Schema._

class MetricsSpec extends SparkSpec {

  import org.apache.spark.sql.functions._

  private def sem(dev: String, seq: Int, event: String, tag: String,
                  t0: Long, t1: Long, src: String = "annotated") =
    Semantic(dev, seq, event, tag, tag, t0, t1, src)

  test("perSecond explodes ranges and dedupes overlaps (annotated wins)") {
    import spark.implicits._
    val df = Seq(
      sem("d", 0, Stay, "A", 0, 10),
      sem("d", 1, PassBy, "B", 8, 12, "inferred")).toDF()
    val out = Metrics.perSecond(df)
    assert(out.count() == 13) // seconds 0..12
    val at9 = out.filter(col("sec") === 9).collect()(0)
    assert(at9.getAs[String]("event") == Stay) // "annotated" < "inferred"
  }

  test("agreement on identical sequences is perfect") {
    import spark.implicits._
    val t = Seq(sem("d", 0, Stay, "A", 0, 99), sem("d", 1, PassBy, "B", 100, 199)).toDS()
    val a = Metrics.agreement(spark, t, t)
    assert(a.truthSeconds == 200)
    assert(a.coverage == 1.0 && a.eventAccuracy == 1.0 &&
      a.regionAccuracy == 1.0 && a.bothAccuracy == 1.0)
  }

  test("agreement splits event and region errors") {
    import spark.implicits._
    val truth = Seq(sem("d", 0, Stay, "A", 0, 99)).toDS()
    val pred = Seq(
      sem("d", 0, Stay, "A", 0, 49),     // 50 s both right
      sem("d", 1, PassBy, "A", 50, 74),  // 25 s region right, event wrong
      sem("d", 2, Stay, "B", 75, 89)).toDS() // 15 s event right, region wrong
    val a = Metrics.agreement(spark, pred, truth)
    assert(a.truthSeconds == 100)
    assert(a.coveredSeconds == 90)
    assert(a.eventCorrect == 65)
    assert(a.regionCorrect == 75)
    assert(a.bothCorrect == 50)
    assert(math.abs(a.coverage - 0.9) < 1e-9)
  }

  test("agreement with zero coverage") {
    import spark.implicits._
    val truth = Seq(sem("d", 0, Stay, "A", 0, 99)).toDS()
    val pred = Seq(sem("other", 0, Stay, "A", 0, 99)).toDS()
    val a = Metrics.agreement(spark, pred, truth)
    assert(a.coverage == 0.0 && a.eventAccuracy == 0.0)
  }

  test("agreement computes per-class precision and recall") {
    import spark.implicits._
    val truth = Seq(sem("d", 0, Stay, "A", 0, 59), sem("d", 1, PassBy, "A", 60, 99)).toDS()
    val pred = Seq(sem("d", 0, Stay, "A", 0, 79), sem("d", 1, PassBy, "A", 80, 99)).toDS()
    val prf = Metrics.agreement(spark, pred, truth).prf
    val (pStay, rStay, _) = prf(Stay)
    val (pPass, rPass, _) = prf(PassBy)
    assert(math.abs(pStay - 60.0 / 80.0) < 1e-9)
    assert(math.abs(rStay - 1.0) < 1e-9)
    assert(math.abs(pPass - 1.0) < 1e-9)
    assert(math.abs(rPass - 20.0 / 40.0) < 1e-9)
  }

  test("per-class precision and recall count covered seconds only") {
    import spark.implicits._
    val truth = Seq(sem("d", 0, Stay, "A", 0, 99)).toDS()
    val pred = Seq(sem("d", 0, Stay, "A", 0, 49)).toDS() // seconds 50..99 uncovered
    val a = Metrics.agreement(spark, pred, truth)
    assert(a.coveredSeconds == 50)
    assert(a.prf(Stay) == ((1.0, 1.0, 1.0)))
    assert(a.prf(PassBy) == ((0.0, 0.0, 0.0)))
  }

  test("posError measures noise against the truth") {
    import spark.implicits._
    val truth = (0 until 100).map(i => GtRecord("d", i.toLong, 10, 10, 0, "r", "T", Stay)).toDS()
    val recs = (0 until 100 by 10).map(i =>
      PosRecord("d", i.toLong, 13, 14, if (i == 50) 1 else 0)).toDF()
    val e = Metrics.posError(spark, recs, truth)
    assert(e.n == 10)
    assert(math.abs(e.meanErr - 5.0) < 1e-9)
    assert(e.wrongFloor == 1)
  }

  test("posError is a function of the records: any join strategy, any partitioning, bit for bit") {
    import spark.implicits._
    val rnd = new scala.util.Random(11)
    val truth = for (d <- 0 until 40; t <- 0L until 3000L)
      yield GtRecord(f"d$d%02d", t, 50 + 10 * rnd.nextGaussian(), 20 + 5 * rnd.nextGaussian(), d % 7, "r", "T", Stay)
    val recs = truth.filter(_ => rnd.nextDouble() < 0.7).map { g =>
      PosRecord(g.deviceId, g.ts, g.x + 1.5 * rnd.nextGaussian(), g.y + 1.5 * rnd.nextGaussian(),
                if (rnd.nextDouble() < 0.03) g.floor + 1 else g.floor)
    }
    def bits(e: Metrics.PosError) = (e.n, java.lang.Double.doubleToRawLongBits(e.meanErr),
                                     java.lang.Double.doubleToRawLongBits(e.p95Err), e.wrongFloor)
    // The errors summed in ascending order, and the nearest-rank p95.
    val byKey = truth.map(g => (g.deviceId, g.ts) -> g).toMap
    val errs = recs.map { r =>
      val g = byKey((r.deviceId, r.ts))
      math.sqrt(math.pow(r.x - g.x, 2) + math.pow(r.y - g.y, 2))
    }.sorted
    val expected = (recs.size.toLong, java.lang.Double.doubleToRawLongBits(errs.sum / errs.size),
      java.lang.Double.doubleToRawLongBits(errs(math.ceil(0.95 * errs.size).toInt - 1)),
      recs.count(r => r.floor != byKey((r.deviceId, r.ts)).floor).toLong)
    val recDf = recs.toDF(); val truthDs = truth.toDS()
    for (n <- Seq(1, 7); hint <- Seq("shuffle", "broadcast records", "broadcast truth")) {
      val r = recDf.repartition(n); val t = truthDs.repartition(n)
      val e = hint match {
        case "shuffle"           => Metrics.posError(spark, r, t)
        case "broadcast records" => Metrics.posError(spark, broadcast(r), t)
        case _                   => Metrics.posError(spark, r, broadcast(t))
      }
      assert(bits(e) == expected, s"$hint join, $n partitions")
    }
  }

  test("gapRecovery scores inferred coverage inside gaps only") {
    import spark.implicits._
    val truth = Seq(sem("d", 0, PassBy, "A", 0, 299)).toDS()
    val pred = Seq(
      sem("d", 0, PassBy, "A", 0, 99),
      sem("d", 1, PassBy, "A", 100, 199, "inferred"),
      sem("d", 2, PassBy, "B", 200, 249, "inferred")).toDS()
    val gaps = Seq(("d", 100L, 249L)).toDF("device_id", "g_start", "g_end")
    val g = Metrics.gapRecovery(spark, pred, truth, gaps)
    assert(g.gapSeconds == 150)
    assert(g.covered == 150)
    assert(g.regionCorrect == 100)
    assert(math.abs(g.accuracy - 100.0 / 150.0) < 1e-9)
  }
}
