package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SqlReference}
import repro.config.EventEditor
import repro.core.Knowledge.{KnowledgeModel, Summary}
import repro.core.Schema._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig

class KnowledgeSpec extends SparkSpec {

  private def sem(dev: String, seq: Int, region: String, event: String = PassBy,
                  t0: Long = 0, t1: Long = 60) =
    Semantic(dev, seq, event, region, region, t0 + seq * 100L, t1 + seq * 100L, "annotated")

  private lazy val sems = Seq(
    sem("d1", 0, "A"), sem("d1", 1, "B"), sem("d1", 2, "C"),
    sem("d2", 0, "A"), sem("d2", 1, "B"), sem("d2", 2, "A"),
    sem("d3", 0, "B", Stay, 0, 300), sem("d3", 1, "B", PassBy, 0, 30), sem("d3", 2, "C"))

  test("transitionCounts aggregates consecutive pairs per device") {
    import spark.implicits._
    val out = SqlReference.transitionCounts(sems.toDF())
    val m = out.collect().map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    assert(m(("A", "B")) == 2)
    assert(m(("B", "C")) == 2)
    assert(m(("B", "A")) == 1)
    assert(!m.contains(("B", "B"))) // self-transitions excluded
  }

  test("transitionCounts agrees with DuckDB window semantics") {
    import spark.implicits._
    val df = sems.toDF()
    Oracle.assertEquivalent(
      SqlReference.transitionCounts(df)
        .select(col("from_region"), col("to_region"), col("n")),
      """WITH nxt AS (
        |  SELECT regionId AS from_region,
        |         lead(regionId) OVER (PARTITION BY deviceId ORDER BY CAST(seqNo AS INT)) AS to_region
        |  FROM sems)
        |SELECT from_region, to_region, count(*) AS n
        |FROM nxt WHERE to_region IS NOT NULL AND to_region <> from_region
        |GROUP BY from_region, to_region""".stripMargin,
      "sems" -> df)
  }

  test("regionStats computes dwell mean and stay share") {
    import spark.implicits._
    val out = SqlReference.regionStats(sems.toDF()).collect()
      .map(r => r.getString(0) -> ((r.getDouble(1), r.getDouble(2)))).toMap
    // B: durations 60,60,300,30 -> mean 112.5; one stay of four -> 0.25
    assert(math.abs(out("B")._1 - 112.5) < 1e-9)
    assert(math.abs(out("B")._2 - 0.25) < 1e-9)
    assert(out("A")._2 == 0.0)
  }

  test("regionStats agrees with DuckDB") {
    import spark.implicits._
    val df = sems.toDF()
    Oracle.assertEquivalent(
      SqlReference.regionStats(df),
      s"""SELECT regionId, avg(CAST(tEnd AS BIGINT) - CAST(tStart AS BIGINT)) AS mean_dwell,
         |       avg(CASE WHEN event = '$Stay' THEN 1.0 ELSE 0.0 END) AS stay_share
         |FROM sems GROUP BY regionId""".stripMargin,
      "sems" -> df)
  }

  test("build collects a usable model") {
    import spark.implicits._
    val km = Knowledge.build(spark, sems.toDS())
    assert(km.transitions(("A", "B")) == 2)
    assert(km.dominantEvent("A") == PassBy)
    assert(km.expectedDwell("B") == 112.5)
  }

  /** Semantics annotated from a small simulated population, with a model
    * trained on that population's truth. */
  private lazy val annotatedSynth: Seq[Semantic] = {
    val dsm = Mall.dsm()
    val cfg = SimConfig(nDevices = 6, seed = 3L)
    val (model, _) = EventEditor.trainOnSimulation(spark, dsm, cfg, 1.0)
    SynthIndoor.raw(spark, dsm, cfg).collect().toSeq.groupBy(_.deviceId).values.toSeq
      .flatMap(rs => Annotator.annotateDevice(dsm, model, Cleaner.cleanDevice(dsm, rs)))
  }

  test("merged summaries equal transitionCounts and regionStats exactly") {
    import spark.implicits._
    val df = annotatedSynth.toDF()
    val trans = SqlReference.transitionCounts(df).collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    val stats = SqlReference.regionStats(df).collect()
      .map(r => r.getString(0) -> ((r.getDouble(1), r.getDouble(2)))).toMap
    val km = Summary.mergeAll(annotatedSynth.groupBy(_.deviceId).values.map(Summary.ofDevice)).toModel(0.5)
    assert(trans.size > 10)
    assert(km.transitions == trans)
    assert(km.dwell == stats.map { case (r, (d, _)) => r -> d })
    assert(km.stayShare == stats.map { case (r, (_, p)) => r -> p })
    assert(Knowledge.build(spark, annotatedSynth.toDS()) == km)
  }

  test("summaries merge in any order") {
    val parts = sems.groupBy(_.deviceId).values.map(Summary.ofDevice).toSeq
    val whole = Summary.mergeAll(parts)
    assert(Summary.mergeAll(parts.reverse) == whole)
    assert(Summary.mergeAll(Seq(Summary.empty, whole)) == whole)
    assert(Summary.ofDevice(sems.filter(_.deviceId == "d1").reverse) ==
           Summary.ofDevice(sems.filter(_.deviceId == "d1")))
  }

  test("prob is a smoothed conditional distribution") {
    val km = KnowledgeModel(Map(("A", "B") -> 8L, ("A", "C") -> 2L),
      Map.empty, Map.empty, alpha = 0.5)
    val cands = Set("B", "C", "D")
    val ps = cands.toSeq.map(c => km.prob("A", c, cands))
    assert(math.abs(ps.sum - 1.0) < 1e-9)
    assert(km.prob("A", "B", cands) > km.prob("A", "C", cands))
    assert(km.prob("A", "D", cands) > 0.0) // smoothing: unseen but possible
  }

  test("prob from an unseen region is uniform over candidates") {
    val km = KnowledgeModel(Map.empty, Map.empty, Map.empty)
    val cands = Set("X", "Y")
    assert(math.abs(km.prob("Z", "X", cands) - 0.5) < 1e-9)
  }

  test("expectedDwell falls back to the global mean then 30 s") {
    val km = KnowledgeModel(Map.empty, Map("A" -> 100.0, "B" -> 200.0), Map.empty)
    assert(km.expectedDwell("A") == 100.0)
    assert(km.expectedDwell("unknown") == 150.0)
    assert(KnowledgeModel(Map.empty, Map.empty, Map.empty).expectedDwell("x") == 30.0)
  }

  test("dominantEvent thresholds the stay share") {
    val km = KnowledgeModel(Map.empty, Map.empty, Map("A" -> 0.7, "B" -> 0.2))
    assert(km.dominantEvent("A") == Stay)
    assert(km.dominantEvent("B") == PassBy)
    assert(km.dominantEvent("unseen") == PassBy)
  }
}
