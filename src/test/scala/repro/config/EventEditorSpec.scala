package repro.config

import repro.SparkSpec
import repro.core.{Cleaner, EventModel}
import repro.core.Schema._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig

class EventEditorSpec extends SparkSpec {

  private def rec(dev: String, ts: Long, x: Double) =
    CleanRecord(dev, ts, x, 5.0, 0, "none")

  test("trainingData cuts segments and extracts features per label") {
    import spark.implicits._
    val cleaned = ((0 until 20).map(i => rec("d1", i * 5L, 3.0)) ++
      (0 until 20).map(i => rec("d2", i * 5L, i * 5.0))).toDS()
    val segs = Seq(
      LabeledSegment("d1", 0, 95, Stay),
      LabeledSegment("d2", 0, 95, PassBy))
    val ex = EventEditor.trainingData(spark, cleaned, segs).collect()
    assert(ex.length == 2)
    val byLabel = ex.map(e => e.label -> e.features).toMap
    // The stay segment is stationary; the pass-by covers 95 m.
    assert(byLabel(Stay)(1) == 0.0)   // pathLen
    assert(byLabel(PassBy)(1) > 90.0)
  }

  test("segments covering fewer than 2 records are dropped") {
    import spark.implicits._
    val cleaned = (0 until 10).map(i => rec("d1", i * 10L, 3.0)).toDS()
    val segs = Seq(
      LabeledSegment("d1", 0, 5, Stay),      // covers 1 record
      LabeledSegment("d1", 1000, 2000, Stay), // covers none
      LabeledSegment("dX", 0, 100, Stay))     // unknown device
    assert(EventEditor.trainingData(spark, cleaned, segs).collect().isEmpty)
  }

  test("overlapping segments each produce an example") {
    import spark.implicits._
    val cleaned = (0 until 20).map(i => rec("d1", i * 5L, 3.0)).toDS()
    val segs = Seq(LabeledSegment("d1", 0, 50, Stay), LabeledSegment("d1", 25, 95, Stay))
    assert(EventEditor.trainingData(spark, cleaned, segs).collect().length == 2)
  }

  test("designateFromTruth balances labels and filters by device") {
    val truth = (0 until 50).map { i =>
      Semantic(if (i % 2 == 0) "a" else "b", i, if (i % 4 < 2) Stay else PassBy,
               "T", "r", i * 100L, i * 100L + 50, "truth")
    }
    val segs = EventEditor.designateFromTruth(truth, Set("a"), maxPerLabel = 5)
    assert(segs.forall(_.deviceId == "a"))
    assert(segs.count(_.label == Stay) <= 5 && segs.count(_.label == PassBy) <= 5)
    assert(segs.map(_.label).toSet == Set(Stay, PassBy))
  }

  test("designateFromTruth drops ultra-short runs") {
    val truth = Seq(
      Semantic("a", 0, Stay, "T", "r", 0, 5, "truth"),    // 5 s: dropped
      Semantic("a", 1, Stay, "T", "r", 10, 100, "truth"))
    val segs = EventEditor.designateFromTruth(truth, Set("a"))
    assert(segs.size == 1 && segs.head.tStart == 10)
  }

  test("designateFromTruth picks the same segments from permuted input") {
    // Ten runs per label share each duration, so the cap falls among ties.
    val truth = (0 until 60).map { i =>
      Semantic(s"d${i % 7}", i, if (i % 2 == 0) Stay else PassBy, "T", "r",
               i * 100L, i * 100L + 10 + (i / 20) * 10, "truth")
    }
    val devs = truth.map(_.deviceId).toSet
    val segs = EventEditor.designateFromTruth(truth, devs, maxPerLabel = 15)
    assert(segs.count(_.label == Stay) == 15)
    val rng = new scala.util.Random(5)
    (1 to 5).foreach { _ =>
      assert(EventEditor.designateFromTruth(rng.shuffle(truth), devs, maxPerLabel = 15) == segs)
    }
  }

  test("trainOnSimulation trains the model of the collected recipe, on the trainSplit devices") {
    import spark.implicits._
    val dsm = Mall.dsm()
    val cfg = SimConfig(nDevices = 8, seed = 5L)
    val (model, devs) = EventEditor.trainOnSimulation(spark, dsm, cfg, 0.5)
    val truth = SynthIndoor.truthSemantics(spark, dsm, cfg).collect().toSeq
    assert(devs == EventEditor.trainSplit(truth.map(_.deviceId), 0.5))
    val cleaned = SynthIndoor.raw(spark, dsm, cfg).collect().toSeq.groupBy(_.deviceId).values
      .flatMap(Cleaner.cleanDevice(dsm, _)).toSeq
    val ref = EventModel.train(EventEditor.trainingData(spark, cleaned.toDS(),
      EventEditor.designateFromTruth(truth, devs)).collect().toSeq).model
    assert(model.model.w.toSeq == ref.w.toSeq && model.model.b == ref.b)
    assert(model.model.std.mean.toSeq == ref.std.mean.toSeq && model.model.std.std.toSeq == ref.std.std.toSeq)
  }

  test("the trained model does not depend on shuffle or input partitioning") {
    import spark.implicits._
    val dsm = Mall.dsm()
    val cfg = SimConfig(nDevices = 100, seed = 77L)
    val truth = SynthIndoor.truthSemantics(spark, dsm, cfg).collect().toSeq
    val devs = EventEditor.trainSplit(truth.map(_.deviceId), 0.2)
    val segments = EventEditor.designateFromTruth(truth, devs)
    val cleaned = SynthIndoor.raw(spark, dsm, cfg).collect().toSeq.filter(r => devs(r.deviceId))
      .groupBy(_.deviceId).values.flatMap(Cleaner.cleanDevice(dsm, _)).toSeq
    def bits(xs: Array[Double]) = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    val conf = spark.conf
    val saved = Seq("spark.sql.adaptive.enabled", "spark.sql.shuffle.partitions")
      .map(k => k -> conf.getOption(k))
    val fits = try {
      conf.set("spark.sql.adaptive.enabled", "false")
      Seq(1, 7).map { n =>
        conf.set("spark.sql.shuffle.partitions", n.toString)
        val m = EventModel.train(EventEditor.trainingData(spark, cleaned.toDS().repartition(n),
          segments).collect().toSeq).model
        (bits(m.w), bits(Array(m.b)), bits(m.std.mean), bits(m.std.std))
      }
    } finally saved.foreach {
      case (k, Some(v)) => conf.set(k, v)
      case (k, None)    => conf.unset(k)
    }
    assert(fits.distinct.size == 1)
  }

  test("trainSplit is deterministic and sized by fraction") {
    val ids = (0 until 10).map(i => s"dev$i")
    val s = EventEditor.trainSplit(ids, 0.3)
    assert(s == EventEditor.trainSplit(ids.reverse, 0.3))
    assert(s.size == 3)
    assert(EventEditor.trainSplit(ids, 0.01).size == 1) // at least one
  }

  test("default patterns are the paper's running examples") {
    assert(EventEditor.DefaultPatterns == Seq(Stay, PassBy))
  }
}
