package repro.config

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{Cleaner, EventModel, Features, PerDevice}
import repro.core.Schema._
import repro.gen.SynthIndoor
import repro.gen.SynthIndoor.SimConfig
import repro.indoor.Dsm

/** Event Editor (Configurator component 3).
  *
  * The analyst "defines mobility event patterns, and designates each
  * defined pattern the corresponding positioning sequence segments on the
  * map view. The designated data segments will be used to train a
  * learning-based model." A designated segment is a (device, time-range,
  * label) triple; this module turns segments plus the underlying cleaned
  * positioning data into the training feature set for
  * [[repro.core.EventModel]].
  */
object EventEditor {

  /** Registered mobility event patterns (user-definable; the demo uses the
    * paper's two running examples). Pattern order fixes the label → class
    * index mapping of the binary model: `Stay` → 1, everything else → 0.
    */
  val DefaultPatterns: Seq[String] = Seq(Stay, PassBy)

  /** A labeled training example: the features of one designated segment. */
  final case class TrainingExample(deviceId: String, label: String,
                                   features: Array[Double])

  /** The training examples of one device: each of its designated
    * `segments`, in order, cut out of its `cleaned` records and turned
    * into features. A segment covering fewer than 2 records carries no
    * trajectory shape and is dropped.
    */
  def examples(segments: Seq[LabeledSegment], cleaned: Seq[CleanRecord]): Seq[TrainingExample] = {
    val rs = cleaned.sortBy(_.ts)
    segments.flatMap { s =>
      val in = rs.filter(r => r.ts >= s.tStart && r.ts <= s.tEnd)
      if (in.size < 2) None
      else Some(TrainingExample(s.deviceId, s.label, Features.of(s.deviceId, 0, in).vector))
    }
  }

  /** [[examples]] of every device that has designated segments. */
  def trainingData(spark: SparkSession, cleaned: Dataset[CleanRecord],
                   segments: Seq[LabeledSegment]): Dataset[TrainingExample] = {
    import spark.implicits._
    val byDev = segments.groupBy(_.deviceId)
    PerDevice.flatMap(cleaned)(_.deviceId)(rs => examples(byDev.getOrElse(rs.head.deviceId, Nil), rs))
  }

  /** Auto-designate training segments from ground truth — the programmatic
    * stand-in for the analyst clicking segments on the map view. Takes the
    * ground-truth semantics of `trainDevices` and returns their runs as
    * labeled segments, longest first, capped at `maxPerLabel` per pattern
    * so classes stay balanced. Equal durations are ordered by device and
    * start time, so the segments do not depend on the order of `truth`.
    */
  def designateFromTruth(truth: Seq[Semantic], trainDevices: Set[String],
                         maxPerLabel: Int = 400): Seq[LabeledSegment] = {
    val usable = truth.filter(s => trainDevices.contains(s.deviceId) && s.duration >= 10)
    usable.groupBy(_.event).toSeq.flatMap { case (label, ss) =>
      ss.sortBy(s => (-s.duration, s.deviceId, s.tStart)).take(maxPerLabel)
        .map(s => LabeledSegment(s.deviceId, s.tStart, s.tEnd, label))
    }
  }

  /** Deterministic train/eval device split: the analyst labels data from a
    * fraction of devices, the model runs on the rest. */
  def trainSplit(deviceIds: Seq[String], fraction: Double): Set[String] = {
    val sorted = deviceIds.distinct.sorted
    sorted.take(math.max(1, (sorted.size * fraction).toInt)).toSet
  }

  /** The Event Editor step on a simulated population: designate segments
    * from the ground truth of a `trainFraction` of `cfg`'s devices, cut
    * them out of those devices' cleaned records and train the event
    * model. Each training device is simulated and cleaned once, in one
    * Spark job; the cut and the fit run on the driver. The other devices
    * are not simulated. Returns the model and the training devices.
    */
  def trainOnSimulation(spark: SparkSession, dsm: Dsm, cfg: SimConfig,
                        trainFraction: Double): (EventModel, Set[String]) = {
    import spark.implicits._
    val trainDevs = trainSplit((0 until cfg.nDevices).map(SynthIndoor.deviceId), trainFraction)
    val devices = SynthIndoor.perDevice(spark, dsm, cfg, i => trainDevs(SynthIndoor.deviceId(i))) { s =>
      Iterator.single((s.deviceId, SynthIndoor.encodeTruth(s.deviceId, s.gt),
                       Cleaner.cleanDevice(dsm, s.raw)))
    }.collect()
    val segments = designateFromTruth(devices.flatMap(_._2).toSeq, trainDevs).groupBy(_.deviceId)
    val cut = devices.toSeq.flatMap { case (id, _, cleaned) => examples(segments.getOrElse(id, Nil), cleaned) }
    (EventModel.train(cut), trainDevs)
  }
}
