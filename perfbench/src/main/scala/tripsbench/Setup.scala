package tripsbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.config.EventEditor
import repro.core.{Cleaner, EventModel}
import repro.core.Schema.PosRecord
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import repro.indoor.Dsm
import tripsbench.Main.{Args, Cores, SetupRepeats, ShufflePartitions}

/** What a run needs before its first operation: the session, the DSM, the
  * event model and the cached raw input. */
final case class Env(spark: SparkSession, dsm: Dsm, model: EventModel,
                     raw: Dataset[PosRecord], nRaw: Long, trainS: Double, simulateS: Double)

object Setup {

  /** The analyst labels a fifth of a 100-device population that is
    * disjoint from the workload's (its own simulation seed). */
  val TrainDevices = 100
  val TrainFraction = 0.2
  val TrainSeedOffset = 1000003L

  def session(): SparkSession =
    SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("trips-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def seconds[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** The Event Editor step, as the benches' `trainModel` does it. */
  def trainModel(spark: SparkSession, dsm: Dsm, seed: Long): EventModel = {
    val cfg = SimConfig(nDevices = TrainDevices, seed = seed + TrainSeedOffset)
    val truth = SynthIndoor.truthSemantics(spark, dsm, cfg).collect().toSeq
    val trainDevs = EventEditor.trainSplit(truth.map(_.deviceId).distinct, TrainFraction)
    val segments = EventEditor.designateFromTruth(
      truth.filter(s => trainDevs.contains(s.deviceId)), trainDevs)
    val b = spark.sparkContext.broadcast(dsm)
    val cleaned = Cleaner.clean(spark,
      SynthIndoor.raw(spark, dsm, cfg).filter(r => trainDevs.contains(r.deviceId)), b)
    val model = EventModel.train(EventEditor.trainingData(spark, cleaned, segments).collect().toSeq)
    b.destroy()
    model
  }

  def once(args: Args): Env = {
    val spark = session()
    val dsm = Mall.dsm()
    val (model, trainS) = seconds(trainModel(spark, dsm, args.seed))
    val ((raw, n), simS) = seconds {
      val r = SynthIndoor.raw(spark, dsm, args.workload.sim.copy(seed = args.seed)).cache()
      (r, r.count())
    }
    Env(spark, dsm, model, raw, n, trainS, simS)
  }

  /** Set up `SetupRepeats` times from scratch, the first time counted from
    * JVM start. Returns the last environment and every set-up time. */
  def repeated(args: Args): (Env, Seq[Double]) = {
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    var env = once(args)
    var times = Vector((System.currentTimeMillis() - jvmStart) / 1e3)
    for (_ <- 1 until SetupRepeats) {
      env.spark.stop()
      SparkSession.clearActiveSession()
      SparkSession.clearDefaultSession()
      val (e, s) = seconds(once(args))
      env = e
      times :+= s
    }
    (env, times)
  }
}
