package repro.config

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{Cleaner, EventModel, Features}
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

  /** Cut the designated segments out of the cleaned data and extract their
    * features. Segments with fewer than 2 covered records carry no
    * trajectory shape and are dropped. Distributed: records are grouped by
    * device and matched to that device's segments.
    */
  def trainingData(spark: SparkSession, cleaned: Dataset[CleanRecord],
                   segments: Seq[LabeledSegment]): Dataset[TrainingExample] = {
    import spark.implicits._
    val byDev = segments.groupBy(_.deviceId)
    val b = spark.sparkContext.broadcast(byDev)
    cleaned.groupByKey(_.deviceId).flatMapGroups { (dev, it) =>
      b.value.get(dev) match {
        case None => Iterator.empty
        case Some(segs) =>
          val rs = it.toVector.sortBy(_.ts)
          segs.iterator.flatMap { s =>
            val in = rs.filter(r => r.ts >= s.tStart && r.ts <= s.tEnd)
            if (in.size < 2) None
            else Some(TrainingExample(dev, s.label, Features.of(dev, 0, in).vector))
          }
      }
    }
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
    * model. Each training device is simulated once, for both its truth
    * and its raw records; the other devices are not simulated. Returns the
    * model and the training devices.
    */
  def trainOnSimulation(spark: SparkSession, dsm: Dsm, cfg: SimConfig,
                        trainFraction: Double): (EventModel, Set[String]) = {
    import spark.implicits._
    val trainDevs = trainSplit((0 until cfg.nDevices).map(SynthIndoor.deviceId), trainFraction)
    val devices = SynthIndoor.perDevice(spark, dsm, cfg, i => trainDevs(SynthIndoor.deviceId(i))) { s =>
      Iterator.single((SynthIndoor.encodeTruth(s.deviceId, s.gt), Cleaner.cleanDevice(dsm, s.raw)))
    }.collect()
    val segments = designateFromTruth(devices.flatMap(_._1).toSeq, trainDevs)
    val examples = trainingData(spark, devices.flatMap(_._2).toSeq.toDS(), segments)
    (EventModel.train(examples.collect().toSeq), trainDevs)
  }
}
