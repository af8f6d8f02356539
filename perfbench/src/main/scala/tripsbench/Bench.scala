package tripsbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerDrain
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.functions.col
import repro.config.{DataSelector, DeviceIdPattern}
import repro.core._
import repro.core.Knowledge.KnowledgeModel
import repro.core.Schema._
import repro.eval.Metrics
import repro.gen.SynthIndoor
import repro.viewer.Timeline
import scala.collection.mutable
import tripsbench.Main._
import tripsbench.Setup.seconds

/** What one translation produced, for the checks and the metrics. The
  * cleaned records are held (until `release`) when they are to be scored. */
final case class OpOut(semantics: Array[Semantic], cleanedCount: Long, latencyS: Double,
                       cachedBytes: Long, cleaned: Option[Dataset[CleanRecord]], release: () => Unit)

/** The layer outputs of one traced translation. */
final case class Layered(cleaned: Dataset[CleanRecord], annotated: Dataset[Semantic],
                         km: KnowledgeModel, semantics: Array[Semantic])

/** The per-device layer functions run on one driver thread over the same
  * population: seconds per layer, layer counts and the final semantics. */
final case class OneThread(cleanS: Double, splitS: Double, annotateS: Double, complementS: Double,
                           counts: Map[String, Double], semantics: Seq[Semantic])

final case class TracedOp(root: Span, cachedBytes: Long, km: KnowledgeModel, oneThread: OneThread)

/** One benchmark process after set-up: the timed or the traced run. An
  * operation translates the whole cached population. */
final class Bench(args: Args, env: Env) {

  private val w = args.workload
  private val spark = env.spark
  import spark.implicits._
  private val sc = spark.sparkContext
  private val tcfg = Translator.Config()
  private var attempted = 0
  private var failed = 0
  private var firstDigest = Option.empty[String]

  /** Distinct (device, ts) pairs: the records the Cleaner must keep. */
  private lazy val distinctTs: Long = env.raw.select("deviceId", "ts").distinct().count()

  /** The raw input on the driver, for the one-thread baseline. */
  private lazy val rawRecords: Array[PosRecord] = env.raw.collect()

  // --------------------------------------------------------------- storage

  private def persistentIds(): Set[Int] = sc.getPersistentRDDs.keySet.toSet

  /** Bytes of Spark storage held by RDDs not in `baseline`. */
  private def cachedBytes(baseline: Set[Int]): Long =
    sc.getRDDStorageInfo.filterNot(i => baseline.contains(i.id)).map(i => i.memSize + i.diskSize).sum

  /** Drop everything cached since `baseline` was taken. */
  private def release(baseline: Set[Int]): Unit =
    sc.getPersistentRDDs.foreach { case (id, rdd) => if (!baseline.contains(id)) rdd.unpersist(blocking = true) }

  // ------------------------------------------------------------ operations

  /** One whole-population translation, timed from the call to translate
    * until the semantics are collected. */
  private def translateOp(keep: Boolean): OpOut = {
    val baseline = persistentIds()
    val t0 = System.nanoTime()
    val res = Translator.translate(spark, env.raw, env.dsm, env.model, tcfg)
    val sem = res.semantics.collect()
    val t = (System.nanoTime() - t0) / 1e9
    val bytes = cachedBytes(baseline)
    val n = res.cleaned.count()
    val free = () => {
      Seq(res.semantics, res.annotated, res.cleaned).foreach(_.unpersist())
      release(baseline)
    }
    if (keep) OpOut(sem, n, t, bytes, Some(res.cleaned), free)
    else { free(); OpOut(sem, n, t, bytes, None, () => ()) }
  }

  /** The output checks every translation gets. */
  private def check(sem: Seq[Semantic], cleanedCount: Long): Boolean = {
    val problems = mutable.ArrayBuffer.empty[String]
    if (cleanedCount != distinctTs)
      problems += s"cleaned $cleanedCount records, expected $distinctTs distinct (device, ts)"
    problems ++= Checks.violations(sem, env.dsm, tcfg.gapThreshold)
    val d = Checks.digest(sem)
    if (firstDigest.exists(_ != d)) problems += "semantics digest differs from the first translation's"
    if (firstDigest.isEmpty) firstDigest = Some(d)
    fail(problems.toSeq)
  }

  /** Counts one failure when there are problems; prints the first few. */
  private def fail(problems: Seq[String]): Boolean = {
    problems.take(5).foreach(p => System.err.println(s"check failed: $p"))
    if (problems.size > 5) System.err.println(s"check failed: ... ${problems.size - 5} more")
    if (problems.nonEmpty) failed += 1
    problems.isEmpty
  }

  /** Runs `op`, counting it as attempted, and as failed if it throws. */
  private def attempt[A](op: => A): Option[A] = {
    attempted += 1
    try Some(op)
    catch {
      case e: Exception =>
        failed += 1
        System.err.println(s"operation failed: $e")
        None
    }
  }

  private def checkedOp(keep: Boolean): Option[OpOut] =
    attempt(translateOp(keep)).filter(o => check(o.semantics.toSeq, o.cleanedCount))

  /** Progress on stderr, in seconds since JVM start. */
  private def note(msg: String): Unit = {
    val up = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    System.err.println(f"[$up%7.1f s] $msg")
  }

  // ------------------------------------------------------------- timed run

  /** The first translation and, when `score`, its quality; then untimed
    * translations for `WarmSeconds`; then timed ones for `secs` seconds,
    * and at least `MinTimed` of them unless one failed. Scoring runs while
    * the JIT still compiles the translation's code, so it warms up too. */
  private def opLoop(secs: Double, score: Boolean): (Map[String, Double], Seq[OpOut]) = {
    val first = checkedOp(keep = score)
    val scored = first.filter(_ => score).map(quality).getOrElse(Map.empty[String, Double])
    val warmUntil = System.nanoTime() + (WarmSeconds * 1e9).toLong
    while (System.nanoTime() < warmUntil) checkedOp(keep = false)
    note("warm-up done")
    val timed = mutable.ArrayBuffer.empty[OpOut]
    val deadline = System.nanoTime() + (secs * 1e9).toLong
    while (System.nanoTime() < deadline || (failed == 0 && timed.size < MinTimed))
      checkedOp(keep = false).foreach(timed += _)
    (scored, timed.toSeq)
  }

  private def timedRun(setupTimes: Seq[Double]): Map[String, Double] = {
    val (scored, timed) = opLoop(args.seconds, score = true)
    note("timed translations done")
    val lat = timed.map(_.latencyS * 1e3)
    val metrics = if (lat.isEmpty) Map.empty[String, Double] else {
      // Latency is 1/throughput here, and too few translations fit in a run
      // for a tail percentile with ten samples beyond it to lie above the
      // median, so latencies are printed for inspection, not as metrics.
      val tail = Stats.tail(lat, TailBeyond)
      println(f"translations: ${lat.size} timed, latency ms: ${lat.map(x => f"$x%.0f").mkString(" ")}")
      println(f"latency: p50 ${Stats.median(lat)}%.1f ms; " +
        f"p${tail.percentile}%.1f of ${tail.samples} samples ${tail.value}%.1f ms")
      Map(
        "setup_s" -> Stats.median(setupTimes),
        "throughput_rec_s" -> Stats.median(timed.map(o => env.nRaw / o.latencyS)),
        "cached_mb" -> Stats.median(timed.map(_.cachedBytes / 1048576.0)))
    }
    metrics ++ scored
  }

  /** Quality of one translation against the simulator's truth, over every
    * `ScoreStride`-th device (scoring all 500 would not fit a run's time
    * budget). */
  private def quality(op: OpOut): Map[String, Double] = {
    val cfg = w.sim.copy(seed = args.seed)
    val b = sc.broadcast(env.dsm)
    val devices = 0 until Devices by ScoreStride
    val ids = devices.map(SynthIndoor.deviceId)
    val idSet = ids.toSet
    val sims = devices.toDS().map(i => SynthIndoor.simulate(b.value, cfg, i)).cache()
    val truth = sims.flatMap(s => SynthIndoor.encodeTruth(s.deviceId, s.gt.sortBy(_.ts))).cache()
    val gt = sims.flatMap(_.gt)
    val gaps = sims.flatMap(s => s.gaps.map(g => (s.deviceId, g._1, g._2))).toDF("device_id", "g_start", "g_end")
    val pred = op.semantics.filter(s => idSet.contains(s.deviceId)).toSeq.toDS().cache()
    val cleaned = op.cleaned.get.filter(col("deviceId").isin(ids: _*))
    val agr = Metrics.agreement(spark, pred, truth)
    val pos = Metrics.posError(spark, cleaned.toDF(), gt)
    val gap = Metrics.gapRecovery(spark, pred, truth, gaps)
    Seq(sims, truth, pred).foreach(_.unpersist())
    b.destroy()
    op.release()
    Map(
      "event_region_acc" -> agr.bothAccuracy,
      "region_acc" -> agr.regionAccuracy,
      "clean_pos_err_m" -> pos.meanErr,
      "gap_coverage" -> gap.coverage,
      "gap_region_acc" -> gap.accuracy)
  }

  // ------------------------------------------------------------ traced run

  /** `Translator.translate`'s layer calls in its order, one span each. */
  private def tracedTranslate(tr: Tracer): Layered =
    tr.operation("translate") {
      val b = sc.broadcast(env.dsm)
      val cleaned = tr.span("clean") {
        val c = Cleaner.clean(spark, env.raw, b, tcfg.maxSpeed).cache(); c.count(); c
      }
      val annotated = tr.span("annotate") {
        val a = Annotator.annotate(spark, cleaned, b, env.model, tcfg.annotator).cache(); a.count(); a
      }
      val km = tr.span("knowledge")(Knowledge.build(spark, annotated, tcfg.knowledgeAlpha))
      val sem = tr.span("complement") {
        Complementor.complement(spark, annotated, b, sc.broadcast(km), tcfg.gapThreshold).collect()
      }
      Layered(cleaned, annotated, km, sem)
    }

  /** Data Selector step of an analyst's task: select devices by id and
    * materialize the selection. */
  private def select(devices: Seq[String]): Dataset[PosRecord] = {
    val sel = DataSelector.select(env.raw.toDF(),
      Seq(DeviceIdPattern(devices.mkString("^(", "|", ")$")))).as[PosRecord].cache()
    sel.count()
    sel
  }

  /** Viewer step: one device's timeline, synchronized on a click of its
    * middle semantics. True when the clicked entry shows. */
  private def view(raw: Dataset[PosRecord], sem: Seq[Semantic], dev: String): Boolean = {
    val devSem = sem.filter(_.deviceId == dev).sortBy(_.seqNo)
    if (devSem.isEmpty) return false
    val click = devSem(devSem.size / 2)
    val devRaw = raw.toDF().filter(col("deviceId") === dev)
    val entries = Timeline.overlay(
      Timeline.fromPositioning(devRaw, "raw"),
      Timeline.fromSemantics(devSem.toDS().toDF(), devRaw, Timeline.TemporallyMiddle))
    Timeline.sync(entries, dev, click.tStart, click.tEnd).collect().exists { r =>
      r.getAs[String]("source") == "semantics" &&
        r.getAs[Long]("t_start") == click.tStart && r.getAs[Long]("t_end") == click.tEnd
    }
  }

  /** Mean µs per call of `f` over `xs`, the median of passes repeated
    * until 0.3 s of calls have run. */
  private def perCallUs[A](xs: Seq[A])(f: A => Any): Double = {
    if (xs.isEmpty) return 0.0
    val passes = mutable.ArrayBuffer.empty[Double]
    val stop = System.nanoTime() + 300000000L
    while (passes.size < 3 || System.nanoTime() < stop)
      passes += seconds(xs.foreach(f))._2 * 1e6 / xs.size
    Stats.median(passes.toSeq)
  }

  private def oneThread(km: KnowledgeModel): OneThread = {
    val dsm = env.dsm
    val a = tcfg.annotator
    val byDev = rawRecords.groupBy(_.deviceId).toSeq.sortBy(_._1).map(_._2.toSeq)
    val (cleaned, cleanS) = seconds(byDev.map(rs => Cleaner.cleanDevice(dsm, rs, tcfg.maxSpeed)))
    val (snippets, splitS) = seconds(cleaned.map(c => Splitter.split(dsm, c, a.eps, a.minDur, a.sessionGap)))
    val (annotated, annotateS) = seconds(cleaned.map(c => Annotator.annotateDevice(dsm, env.model, c, a)))
    val (complemented, complementS) =
      seconds(annotated.map(s => Complementor.complementDevice(dsm, km, s, tcfg.gapThreshold)))
    val holes = annotated.flatMap(_.sortBy(_.tStart).sliding(2).collect {
      case Seq(x, y) if y.tStart - x.tEnd > tcfg.gapThreshold => (x.regionId, y.regionId)
    })
    val paths = holes.map { case (from, to) => Complementor.mapPath(dsm, km, from, to) }
    val flatClean = cleaned.flatten
    val flatSnip = snippets.flatten
    val counts = Map(
      "clean.records" -> flatClean.size,
      "clean.dedup" -> (rawRecords.length - flatClean.size),
      "clean.repair_floor" -> flatClean.count(_.repair == "floor"),
      "clean.repair_interp" -> flatClean.count(_.repair == "interp"),
      "clean.repair_reanchor" -> flatClean.count(_.repair == "reanchor"),
      "annotate.snippets_dense" -> flatSnip.count(_.dense),
      "annotate.snippets_move" -> flatSnip.count(!_.dense),
      "annotate.semantics" -> annotated.map(_.size).sum,
      "complement.holes" -> holes.size,
      "complement.filled" -> paths.count(_.isDefined),
      "complement.unfillable" -> paths.count(_.isEmpty),
      "complement.inferred" -> complemented.flatten.count(_.source == "inferred"),
    ).map { case (k, v) => k -> v.toDouble } +
      ("complement.map_path_us" -> perCallUs(holes) { case (from, to) => Complementor.mapPath(dsm, km, from, to) })
    OneThread(cleanS, splitS, annotateS, complementS, counts, complemented.flatten)
  }

  /** µs per call of the `indoor` functions the Cleaner and the Splitter
    * call, over the first 20k consecutive record pairs of the population. */
  private def indoorTimings(): Map[String, Double] = {
    val pairs = rawRecords.groupBy(_.deviceId).toSeq.sortBy(_._1).flatMap { case (_, rs) =>
      rs.sortBy(_.ts).sliding(2).collect { case Array(a, b) => (a.point, b.point) }
    }.take(20000)
    val dsm = env.dsm
    Map(
      "indoor.min_walk_dist_us" -> perCallUs(pairs) { case (a, b) => dsm.minWalkDist(a, b) },
      "indoor.along_path_us" -> perCallUs(pairs) { case (a, b) => dsm.alongPath(a, b, 0.5) },
      "indoor.region_at_snapped_us" -> perCallUs(pairs) { case (a, _) => dsm.regionAtSnapped(a) })
  }

  /** Half the time on untraced translations (after the warm-up), half on
    * traced ones, each followed by its one-thread baseline; then an
    * analyst's select and view steps on 8 devices of the population. */
  private def tracedRun(): Map[String, Double] = {
    val listener = new GroupListener
    sc.addSparkListener(listener)
    val tr = new Tracer(sc, listener)

    val untraced = opLoop(args.seconds / 2, score = false)._2.map(_.latencyS)

    val traced = mutable.ArrayBuffer.empty[TracedOp]
    val deadline = System.nanoTime() + (args.seconds * 1e9 / 2).toLong
    while (System.nanoTime() < deadline || (failed == 0 && traced.size < 2)) {
      val baseline = persistentIds()
      attempt {
        val layered = tracedTranslate(tr)
        val root = tr.recorded.last
        val cached = cachedBytes(baseline)
        val n = layered.cleaned.count()
        Seq(layered.annotated, layered.cleaned).foreach(_.unpersist())
        release(baseline)
        val ot = oneThread(layered.km)
        val same = Checks.digest(ot.semantics) == Checks.digest(layered.semantics.toSeq)
        if (check(layered.semantics.toSeq, n) &&
            fail(if (same) Nil else Seq("one-thread semantics differ from Spark's")))
          traced += TracedOp(root, cached, layered.km, ot)
      }
    }
    if (traced.isEmpty || untraced.isEmpty) return Map.empty

    val devs = (0 until TaskDevices).map(SynthIndoor.deviceId)
    for (_ <- 0 until 3) attempt {
      tr.operation("select-view") {
        val sel = tr.span("select")(select(devs))
        val shown = tr.span("view")(view(sel, traced.last.oneThread.semantics, devs.head))
        fail(if (shown) Nil else Seq("timeline sync did not show the clicked semantics"))
        sel.unpersist()
      }
    }

    ListenerDrain(sc)
    val spans = tr.recorded
    writeSpans(spans)
    val self = Span.selfTimes(spans)
    val byName = spans.groupBy(_.name)
    def med(xs: Iterable[Double]) = Stats.median(xs.toSeq)
    def wall(name: String) = med(byName(name).map(_.seconds))
    def counted(name: String, f: SparkCounts => AtomicLong) =
      med(byName(name).map(s => f(listener.get(tr.groupOf(s.id))).get.toDouble))
    val roots = traced.map(_.root)
    val totals = roots.map(tr.sparkTotals)
    def total(f: SparkCounts => AtomicLong) = med(totals.map(c => f(c).get.toDouble))
    val ot = traced.map(_.oneThread)
    def ratio(layer: String, oneT: OneThread => Double) = med(traced.map { t =>
      spans.find(s => s.op == t.root.op && s.name == layer).get.seconds / oneT(t.oneThread)
    })
    Map(
      "gen.simulate_s" -> env.simulateS,
      "ml.train_s" -> env.trainS,
      "clean.wall_s" -> wall("clean"),
      "clean.1t_s" -> med(ot.map(_.cleanS)),
      "clean.spark_ratio" -> ratio("clean", _.cleanS),
      "clean.jobs" -> counted("clean", _.jobs),
      "clean.shuffle_write_bytes" -> counted("clean", _.shuffleWrite),
      "annotate.wall_s" -> wall("annotate"),
      "annotate.1t_s" -> med(ot.map(_.annotateS)),
      "annotate.split_1t_s" -> med(ot.map(_.splitS)),
      "annotate.spark_ratio" -> ratio("annotate", _.annotateS),
      "annotate.shuffle_write_bytes" -> counted("annotate", _.shuffleWrite),
      "knowledge.wall_s" -> wall("knowledge"),
      "knowledge.jobs" -> counted("knowledge", _.jobs),
      "knowledge.stages" -> counted("knowledge", _.stages),
      "knowledge.shuffle_write_bytes" -> counted("knowledge", _.shuffleWrite),
      "knowledge.transitions" -> med(traced.map(_.km.transitions.size.toDouble)),
      "complement.wall_s" -> wall("complement"),
      "complement.1t_s" -> med(ot.map(_.complementS)),
      "complement.spark_ratio" -> ratio("complement", _.complementS),
      "spark.jobs" -> total(_.jobs),
      "spark.stages" -> total(_.stages),
      "spark.tasks" -> total(_.tasks),
      "spark.shuffle_read_bytes" -> total(_.shuffleRead),
      "spark.shuffle_write_bytes" -> total(_.shuffleWrite),
      "spark.cached_bytes" -> med(traced.map(_.cachedBytes.toDouble)),
      "select.wall_ms" -> wall("select") * 1e3,
      "view.wall_ms" -> wall("view") * 1e3,
      "trace.translate_s" -> wall("translate"),
      "trace.translate_self_s" -> med(roots.map(s => self(s.id))),
      "trace.overhead_s" -> (wall("translate") - med(untraced)),
    ) ++ ot.head.counts.keys.map(name => name -> med(ot.map(_.counts(name)))) ++ indoorTimings()
  }

  private def writeSpans(spans: Seq[Span]): Unit = {
    val dir = Paths.get(".bench_build", "trace")
    Files.createDirectories(dir)
    val f = dir.resolve(s"${w.name}-seed${args.seed}.jsonl")
    Files.writeString(f, spans.map(Span.toJson).mkString("", "\n", "\n"))
    System.err.println(s"spans: ${spans.size} written to $f")
  }

  // ---------------------------------------------------------------- output

  def run(setupTimes: Seq[Double]): Int = {
    note("set-up done")
    println(settings(setupTimes))
    val (metrics, catalog) =
      if (args.trace) (tracedRun(), Catalog.PerLayer)
      else (timedRun(setupTimes), Catalog.EndToEnd)
    note("measurement done")
    val complete = catalog.forall { case (name, _) => metrics.get(name).exists(v => !v.isNaN && !v.isInfinite) }
    if (!complete) System.err.println("check failed: a metric is missing or not a finite number")
    catalog.foreach { case (name, unit) =>
      println(f"$name%-30s ${metrics.getOrElse(name, Double.NaN)}%16.6f $unit")
    }
    val body = catalog.map { case (name, unit) =>
      val v = if (complete) metrics(name) else 0.0
      s""""$name": {"value": $v, "unit": "$unit"}"""
    }.mkString(", ")
    println(s"""{"correct": ${failed == 0 && complete}, "attempted": ${math.max(1, attempted)}, """ +
      s""""failed": $failed, "metrics": {$body}}""")
    0
  }

  /** Every setting the numbers depend on, as one JSON line. */
  private def settings(setupTimes: Seq[Double]): String = {
    def q(s: String) = "\"" + s + "\""
    val conf = spark.conf
    val fields = Seq(
      "workload" -> q(w.name),
      "seed" -> args.seed.toString,
      "seconds" -> args.seconds.toString,
      "trace" -> args.trace.toString,
      "spark_version" -> q(spark.version),
      "master" -> q(sc.master),
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "shuffle_partitions" -> q(conf.get("spark.sql.shuffle.partitions")),
      "adaptive" -> q(conf.get("spark.sql.adaptive.enabled")),
      "auto_broadcast_join_threshold" -> q(conf.get("spark.sql.autoBroadcastJoinThreshold")),
      "driver_max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "java_version" -> q(System.getProperty("java.version")),
      "devices" -> w.sim.nDevices.toString,
      "raw_records" -> env.nRaw.toString,
      "train_devices" -> Setup.TrainDevices.toString,
      "warm_seconds" -> WarmSeconds.toString,
      "setup_runs_s" -> setupTimes.mkString("[", ", ", "]"))
    "settings " + fields.map { case (k, v) => s"${q(k)}: $v" }.mkString("{", ", ", "}")
  }
}
