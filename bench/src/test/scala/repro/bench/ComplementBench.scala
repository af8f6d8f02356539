package repro.bench

import org.apache.spark.sql.functions._
import repro.config.EventEditor
import repro.core._
import repro.core.Knowledge.KnowledgeModel
import repro.eval.Metrics
import repro.gen.SynthIndoor

/** T4 — Complementing quality at SF=0.1 with guaranteed detection gaps:
  * how much of the lost truth the inferred semantics recover, knowledge-MAP
  * (TRIPS) vs a topology-only shortest-path baseline (uniform priors). */
class ComplementBench extends BenchBase {

  test("T4: gap recovery, knowledge-MAP vs shortest-path prior") {
    import spark.implicits._
    // Every device suffers a gap; longer gaps than the default config.
    val cfg = cfgFor(nDevices = (5000 * BenchSf).toInt)
      .copy(gapProb = 1.0, gapMinSec = 120, gapMaxSec = 420)
    val (model, _) = EventEditor.trainOnSimulation(spark, dsm, cfgFor(nDevices = 100, seed = 77L), 0.2)

    val raw = SynthIndoor.raw(spark, dsm, cfg).cache()
    val truth = SynthIndoor.truthSemantics(spark, dsm, cfg).cache()
    val gaps = SynthIndoor.gaps(spark, dsm, cfg)
      .toDF("device_id", "g_start", "g_end").cache()
    val nGaps = gaps.count()

    val result = Translator.translate(spark, raw, dsm, model)
    val withKnowledge = result.semantics.cache()

    // Baseline: the same annotated semantics, but the Complementor sees a
    // flat prior (pure shortest path over the region graph). Each device is
    // complemented on the driver.
    val flat = KnowledgeModel(Map.empty, Map.empty, Map.empty)
    val shortestPath = result.annotated.collect().groupBy(_.deviceId).toSeq
      .flatMap { case (_, ss) => Complementor.complementDevice(dsm, flat, ss) }
      .toDS().cache()

    val gK = Metrics.gapRecovery(spark, withKnowledge, truth, gaps)
    val gS = Metrics.gapRecovery(spark, shortestPath, truth, gaps)

    banner("T4: Complementing layer gap recovery (SF=0.1, all devices gapped)")
    println(s"injected gaps: $nGaps, truth seconds inside gaps: ${gK.gapSeconds}")
    println(f"${"metric"}%-30s ${"knowledge-MAP"}%14s ${"shortest-path"}%14s")
    println(f"${"inferred coverage of gaps"}%-30s ${gK.coverage}%14.3f ${gS.coverage}%14.3f")
    println(f"${"region accuracy (covered)"}%-30s ${gK.accuracy}%14.3f ${gS.accuracy}%14.3f")
    val nInfK = withKnowledge.filter(col("source") === "inferred").count()
    val nInfS = shortestPath.filter(col("source") === "inferred").count()
    println(s"inferred semantics: knowledge=$nInfK shortest-path=$nInfS")

    def scores(g: Metrics.GapRecovery, nInferred: Long) = Map(
      "gap_s" -> g.gapSeconds, "covered_s" -> g.covered, "region_ok_s" -> g.regionCorrect,
      "coverage" -> g.coverage, "accuracy" -> g.accuracy,
      "inferred_semantics" -> nInferred)
    QualityLog.record("T4", "gaps" -> nGaps,
      "knowledge_map" -> scores(gK, nInfK), "shortest_path" -> scores(gS, nInfS))

    // Shape: the Complementor must actually fill holes, and the learned
    // prior must not be worse than the flat one.
    assert(nGaps > 0 && gK.gapSeconds > 0)
    assert(nInfK > 0)
    assert(gK.coverage > 0.25, s"coverage ${gK.coverage}")
    assert(gK.accuracy >= gS.accuracy - 0.02,
      s"knowledge ${gK.accuracy} vs flat ${gS.accuracy}")

    raw.unpersist(); truth.unpersist(); gaps.unpersist()
    withKnowledge.unpersist(); shortestPath.unpersist()
  }
}
