package repro.core

import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.SparkSpec
import repro.config.EventEditor
import repro.core.Composed.ordered
import repro.core.Schema._
import repro.eval.Metrics
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong

/** End-to-end integration: simulate a small mall population, train the
  * event model on half the devices, translate the other half, and score
  * against ground truth. Thresholds are deliberately conservative — they
  * exist to catch regressions, not to window-dress numbers.
  */
class TranslatorSpec extends SparkSpec {

  private lazy val dsm = Mall.dsm()
  private lazy val cfg = SimConfig(nDevices = 12, seed = 21L)

  private lazy val (model, trainDevs) = EventEditor.trainOnSimulation(spark, dsm, cfg, 0.5)
  private lazy val evalRaw = {
    val devs = trainDevs
    SynthIndoor.raw(spark, dsm, cfg).filter(r => !devs.contains(r.deviceId))
  }

  private lazy val fixture: (Translator.Result, Seq[Semantic], EventModel) = {
    val result = Translator.translate(spark, evalRaw, dsm, model)
    val evalTruth = SynthIndoor.truthSemantics(spark, dsm, cfg).collect().toSeq
      .filterNot(s => trainDevs.contains(s.deviceId))
    (result, evalTruth, model)
  }

  test("translation yields a semantics sequence per device") {
    val (result, evalTruth, _) = fixture
    val sems = result.semantics.collect()
    assert(sems.nonEmpty)
    val devs = sems.map(_.deviceId).toSet
    assert(devs == evalTruth.map(_.deviceId).toSet)
  }

  test("per-device semantics are ordered and non-overlapping") {
    val (result, _, _) = fixture
    result.semantics.collect().groupBy(_.deviceId).foreach { case (_, ss) =>
      val sorted = ss.sortBy(_.seqNo)
      assert(sorted.map(_.seqNo).toSeq == sorted.indices)
      sorted.sliding(2).foreach {
        case Array(a, b) => assert(a.tEnd < b.tStart, s"$a overlaps $b")
        case _           => ()
      }
    }
  }

  test("cleaning reduces positioning error") {
    import spark.implicits._
    val (result, _, _) = fixture
    val gt = SynthIndoor.groundTruth(spark, dsm, cfg)
    val rawErr = Metrics.posError(spark,
      SynthIndoor.raw(spark, dsm, cfg).toDF(), gt)
    val cleanErr = Metrics.posError(spark,
      result.cleaned.toDF().drop("repair"), gt)
    assert(cleanErr.meanErr < rawErr.meanErr)
    assert(cleanErr.wrongFloor < rawErr.wrongFloor)
  }

  test("translated semantics beat conservative accuracy floors") {
    import spark.implicits._
    val (result, evalTruth, _) = fixture
    val a = Metrics.agreement(spark, result.semantics, evalTruth.toDS())
    assert(a.coverage > 0.75, s"coverage ${a.coverage}")
    assert(a.eventAccuracy > 0.70, s"event accuracy ${a.eventAccuracy}")
    assert(a.regionAccuracy > 0.55, s"region accuracy ${a.regionAccuracy}")
  }

  test("knowledge reflects the mall's corridor-centric topology") {
    val (result, _, _) = fixture
    val km = result.knowledge
    assert(km.transitions.nonEmpty)
    // Transitions out of shops go to their floor corridor (door topology),
    // so corridor regions must appear as destinations.
    val toCorridor = km.transitions.count(_._1._2.contains("corridor"))
    assert(toCorridor > 0)
  }

  test("complementor adds inferred semantics only inside holes") {
    val (result, _, _) = fixture
    val all = result.semantics.collect().groupBy(_.deviceId)
    val annotated = result.annotated.collect().groupBy(_.deviceId)
    all.foreach { case (dev, ss) =>
      val inferred = ss.filter(_.source == "inferred")
      val ann = annotated(dev).sortBy(_.tStart)
      inferred.foreach { inf =>
        // Every inferred semantics sits strictly between two consecutive annotated ones.
        assert(ann.zip(ann.drop(1)).exists { case (a, b) => a.tEnd < inf.tStart && inf.tEnd < b.tStart }, s"$inf")
      }
    }
  }

  test("table 1 scenario end-to-end recovers the paper's example") {
    import spark.implicits._
    val (_, _, model) = fixture
    val sim = SynthIndoor.table1Scenario(dsm)
    val result = Translator.translate(spark, spark.createDataset(sim.raw), dsm, model)
    val sems = result.semantics.collect().sortBy(_.tStart)
    val shopSems = sems.filter(s => Set("Adidas", "Nike", "Cashier").contains(s.tag))
    assert(shopSems.exists(s => s.tag == "Adidas" && s.event == Stay))
    assert(shopSems.exists(s => s.tag == "Nike" && s.event == PassBy))
    assert(shopSems.exists(s => s.tag == "Cashier" && s.event == Stay))
    // Order: Adidas before Nike before Cashier.
    val order = shopSems.map(_.tag).distinct.toSeq
    assert(order == Seq("Adidas", "Nike", "Cashier"))
  }

  test("translate equals the per-device functions composed without Spark, at any partition count") {
    val (_, _, model) = fixture
    val (km, expected) = Composed(dsm, evalRaw.collect().toSeq, model)
    Seq(1, 7).foreach { n =>
      // The input partitioning: round-robin, so a device's rows sit in several partitions.
      val input = evalRaw.repartition(n)
      if (n > 1) assert(input.rdd.mapPartitions(_.map(_.deviceId).toSet.iterator).countByValue().values.exists(_ > 1))
      val r = Translator.translate(spark, input, dsm, model)
      assert(r.knowledge == km, s"knowledge at $n input partitions")
      assert(ordered(r.semantics.collect().toSeq) == ordered(expected), s"semantics at $n input partitions")
      r.unpersist()
    }
  }

  test("PerDevice groups each device's rows once, in sorted id order, at any partition count") {
    import spark.implicits._
    val raw = evalRaw.collect().toSeq.groupBy(_.deviceId)
    def check(parts: Array[Vector[(String, Vector[PosRecord])]], what: String): Unit = {
      parts.foreach(p => assert(p.map(_._1) == p.map(_._1).sorted, s"device order, $what"))
      val grouped = parts.toSeq.flatten
      assert(grouped.map(_._1).sorted == raw.keys.toSeq.sorted, s"each device once, $what")
      grouped.foreach { case (id, rs) =>
        assert(rs.sortBy(_.toString) == raw(id).sortBy(_.toString), s"rows of $id, $what")
      }
    }
    Seq(1, 7).foreach { n =>
      // Round-robin input partitions, so a device's rows sit in several of them.
      val input = evalRaw.repartition(n)
      if (n > 1) assert(input.rdd.mapPartitions(_.map(_.deviceId).toSet.iterator).countByValue().values.exists(_ > 1))
      val parts = PerDevice.flatMap(input)(_.deviceId)(rs => Iterator(rs.head.deviceId -> rs)).rdd
        .mapPartitions(it => Iterator(it.toVector)).collect()
      check(parts, s"flatMap of $n input partitions")
      assert(parts.length == spark.sparkContext.defaultParallelism)
      val tracks = PerDevice.tracks(input).mapPartitions(it => Iterator(it.toVector)).collect()
      check(tracks, s"tracks of $n input partitions")
      assert(tracks.length == spark.sparkContext.defaultParallelism)
    }
  }

  /** `body`'s value, and the shuffle records written by the tasks of the
    * jobs it runs under the job description `description`. */
  private def shuffleRecordsWritten[A](description: String)(body: => A): (A, Long) = {
    val sc = spark.sparkContext
    val stages = ConcurrentHashMap.newKeySet[Int]()
    val written = new AtomicLong()
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        e.properties.getProperty("spark.job.description") match {
          case `description`   => e.stageIds.foreach(stages.add)
          case "after the body" => drained.countDown()
          case _               => ()
        }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages.contains(e.stageId) && e.taskMetrics != null)
          written.addAndGet(e.taskMetrics.shuffleWriteMetrics.recordsWritten)
    }
    sc.addSparkListener(listener)
    try {
      val out = body
      // The listener bus is asynchronous: once it delivers a job started
      // after the body, it has delivered every event of the body.
      sc.setJobDescription("after the body")
      try sc.parallelize(Seq(1)).count() finally sc.setJobDescription(null)
      assert(drained.await(10, TimeUnit.SECONDS))
      (out, written.get())
    } finally sc.removeSparkListener(listener)
  }

  /** The ids of the shuffles in `rdd`'s lineage. */
  private def shuffleIds(rdd: RDD[_]): Set[Int] = {
    val seen = scala.collection.mutable.Set.empty[Int]
    def visit(r: RDD[_]): Set[Int] =
      if (!seen.add(r.id)) Set.empty
      else r.dependencies.flatMap {
        case d: ShuffleDependency[_, _, _] => visit(d.rdd) + d.shuffleId
        case d                             => visit(d.rdd)
      }.toSet
    visit(rdd)
  }

  test("the pass shuffles one record per device of each input partition") {
    import spark.implicits._
    val (_, _, model) = fixture
    val sc = spark.sparkContext
    // Rows in a fixed random order over 7 partitions, read with no shuffle
    // of their own, so each device spans several input partitions.
    val input = sc.parallelize(new scala.util.Random(7).shuffle(evalRaw.collect().toSeq), 7).toDS()
    val pairs = input.rdd.mapPartitionsWithIndex((i, it) => it.map(r => (i, r.deviceId))).distinct().count()
    assert(pairs > 7 && pairs < input.count())
    val (r, written) = shuffleRecordsWritten("translate: pass + knowledge") {
      Translator.translate(spark, input, dsm, model)
    }
    assert(written == pairs)
    r.unpersist()
  }

  test("Result.cleaned reads the pass's shuffle output and shuffles nothing of its own") {
    val (_, _, model) = fixture
    val sc = spark.sparkContext
    val r = Translator.translate(spark, evalRaw, dsm, model)
    val pass = shuffleIds(r.semantics.rdd)
    assert(pass.size == 1 && shuffleIds(r.cleaned.rdd) == pass)
    r.semantics.collect()
    // `collect`, not `count`: `count`'s partial aggregate adds an exchange of its own.
    val (cleaned, written) = shuffleRecordsWritten("read the cleaned records") {
      sc.setJobDescription("read the cleaned records")
      try r.cleaned.collect() finally sc.setJobDescription(null)
    }
    assert(written == 0)
    assert(r.cleaned.rdd.getNumPartitions == sc.defaultParallelism)
    // The same rows as the per-device Cleaner, and as the Cleaner's own Spark entry point.
    def sorted(cs: Iterable[CleanRecord]) = cs.toSeq.sortBy(c => (c.deviceId, c.ts))
    val expected = sorted(evalRaw.collect().toSeq.groupBy(_.deviceId).values.flatMap(Cleaner.cleanDevice(dsm, _)))
    assert(sorted(cleaned) == expected)
    val b = sc.broadcast(dsm)
    assert(sorted(Cleaner.clean(spark, evalRaw, b).collect()) == expected)
    b.destroy()
    r.unpersist()
  }

  test("translate shuffles once") {
    val (result, _, _) = fixture
    val ids = Seq(result.cleaned, result.annotated, result.semantics).map(ds => shuffleIds(ds.rdd))
    assert(ids.head.size == 1 && ids.forall(_ == ids.head), ids)
  }

  test("the cached per-device pass has at most one partition per core") {
    val (result, _, _) = fixture
    assert(result.annotated.rdd.getNumPartitions <= spark.sparkContext.defaultParallelism)
  }

  test("unpersist releases what the translation cached") {
    val (_, _, model) = fixture
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.size
    val r = Translator.translate(spark, evalRaw, dsm, model)
    r.semantics.count()
    assert(sc.getPersistentRDDs.size > before)
    r.unpersist()
    assert(sc.getPersistentRDDs.size == before)
  }

  test("the cached blocks carry their name in Spark's storage status") {
    val (_, _, model) = fixture
    val sc = spark.sparkContext
    // By RDD id: Spark's context cleaner may drop an earlier test's
    // unreferenced blocks between two reads, so counts can shrink.
    def named = sc.getRDDStorageInfo.filter(_.name == "translate: annotated blocks").map(_.id).toSet
    val before = named
    val r = Translator.translate(spark, evalRaw, dsm, model)
    r.semantics.count()
    val added = named -- before
    assert(added.size == 1)
    r.unpersist()
    assert((named & added).isEmpty)
  }

  test("the pass runs under its own job description, and the caller's description and group are restored") {
    val (_, _, model) = fixture
    val sc = spark.sparkContext
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[(String, String)]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        seen.add((e.properties.getProperty("spark.job.description"), e.properties.getProperty("spark.jobGroup.id")))
    }
    sc.addSparkListener(listener)
    sc.setJobGroup("caller-group", "caller's job")
    try {
      val r = Translator.translate(spark, evalRaw, dsm, model)
      assert(sc.getLocalProperty("spark.job.description") == "caller's job")
      assert(sc.getLocalProperty("spark.jobGroup.id") == "caller-group")
      r.semantics.count()
      r.unpersist()
      val deadline = System.nanoTime() + 10000000000L
      def jobs = seen.toArray(Array.empty[(String, String)]).toSeq
      def pass = jobs.collect { case (d, g) if d == "translate: pass + knowledge" => g }
      // The listener bus is asynchronous: wait for the count's job, which starts last.
      while (!jobs.exists(_._1 == "caller's job") && System.nanoTime() < deadline) Thread.sleep(20)
      assert(pass.nonEmpty && pass.forall(_ == "caller-group"), jobs)
      assert(jobs.exists(_._1 == "caller's job"), jobs)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  test("a device on an unmodelled floor gets no semantics and leaves the others unchanged") {
    import spark.implicits._
    val (_, _, model) = fixture
    val raw = evalRaw.collect().toSeq
    val offMap = raw.filter(_.deviceId == raw.head.deviceId)
      .map(_.copy(deviceId = "off-map", floor = 99))
    val base = Translator.translate(spark, raw.toDS(), dsm, model)
    val mixed = Translator.translate(spark, (raw ++ offMap).toDS(), dsm, model)
    val sems = mixed.semantics.collect().toSeq
    assert(!sems.exists(_.deviceId == "off-map"))
    assert(ordered(sems) == ordered(base.semantics.collect().toSeq))
    Seq(base, mixed).foreach(_.unpersist())
  }

  test("a device with a non-finite coordinate on every record gets no semantics and keeps its records") {
    import spark.implicits._
    val raw = evalRaw.collect().toSeq
    val offMap = (0 until 5).map(i => PosRecord("nan", WeekStart + i * 5L, Double.NaN, 20.0, 2))
    val base = Translator.translate(spark, raw.toDS(), dsm, model)
    val mixed = Translator.translate(spark, (raw ++ offMap).toDS(), dsm, model)
    val sems = mixed.semantics.collect().toSeq
    assert(!sems.exists(_.deviceId == "nan"))
    assert(ordered(sems) == ordered(base.semantics.collect().toSeq))
    assert(mixed.cleaned.filter(_.deviceId == "nan").count() == 5)
    Seq(base, mixed).foreach(_.unpersist())
  }

  test("a hostile feed leaves the well-formed devices' translation unchanged") {
    import spark.implicits._
    val raw = evalRaw.collect().toSeq
    val dev = raw.head.deviceId
    def offMap(id: String, f: PosRecord => PosRecord) =
      raw.filter(_.deviceId == dev).map(r => f(r.copy(deviceId = id)))
    val hostile =
      offMap("nan-x", _.copy(x = Double.NaN)) ++
      offMap("inf-y", r => r.copy(y = if (r.ts % 2 == 0) Double.PositiveInfinity else Double.NegativeInfinity)) ++
      offMap("floor-minus-1", _.copy(floor = -1)) ++
      offMap("one-off-map", _.copy(floor = Mall.Floors)).take(1) ++
      raw.filter(_.deviceId == dev).take(20) // exact duplicates of well-formed records
    val alone = Translator.translate(spark, raw.toDS(), dsm, model)
    val mixed = Translator.translate(spark, (raw ++ hostile).toDS(), dsm, model)
    val hostileIds = hostile.map(_.deviceId).toSet - dev
    assert(mixed.knowledge == alone.knowledge)
    assert(ordered(mixed.semantics.collect().toSeq) == ordered(alone.semantics.collect().toSeq))
    assert(mixed.cleaned.count() == (raw ++ hostile).map(r => (r.deviceId, r.ts)).distinct.size)
    assert(mixed.cleaned.filter(r => hostileIds.contains(r.deviceId)).count() ==
           hostile.filter(r => hostileIds.contains(r.deviceId)).size)
    Seq(alone, mixed).foreach(_.unpersist())
  }

  test("translate of empty input is empty") {
    import spark.implicits._
    val r = Translator.translate(spark, Seq.empty[PosRecord].toDS(), dsm, model)
    assert(r.semantics.collect().isEmpty && r.cleaned.collect().isEmpty)
    r.unpersist()
  }
}
