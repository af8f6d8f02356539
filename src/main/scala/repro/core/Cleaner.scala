package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Schema._
import repro.indoor.Dsm
import repro.indoor.Dsm.Located
import repro.indoor.Geometry.IndoorPoint

/** The Cleaning layer of the three-layer translation framework (paper §3).
  *
  * Identifies invalid raw positioning records by checking the speeds
  * between consecutive records against the '''minimum indoor walking
  * distance''' from the DSM (people cannot move through walls, and cannot
  * move faster than `maxSpeed` indoors — Yang et al. [13] as cited). An
  * invalid record is repaired in two steps:
  *
  *  1. '''Floor value correction''' — if substituting the last valid
  *     record's floor removes the violation, the floor value was wrong
  *     (a classic Wi-Fi positioning failure across slabs);
  *  2. '''Location interpolation''' — otherwise the possible location at
  *     that record's time is derived from the indoor geometry/topology:
  *     the point at the time-proportional position along the shortest
  *     indoor walking path between the last valid record and the next
  *     record reachable from it.
  *
  * The per-device pass is sequential (each repair feeds the next check).
  * `Translator.translate` runs it inside its single per-device pass;
  * [[clean]] runs it alone, device-parallel, for the Viewer and the benches.
  */
object Cleaner {

  /** Default indoor speed bound (m/s): brisk walking plus sampling slack. */
  val DefaultMaxSpeed = 3.0

  /** Measurement-noise allowance (m) subtracted from the walking distance
    * before the speed test. Two honest samples each carry positioning
    * noise (σ≈1.5 m), and near a stair column that noise stacks on top of
    * the climb's crossCost, pushing genuine floor transitions over the
    * speed bound; without the slack roughly half of all climbs read as
    * violations. 3.5 m absorbs that (≈90th pct of pairwise noise) while a
    * heavy outlier's ~19 m displacement still trips the check. */
  val DefaultNoiseSlack = 3.5

  /** How many records ahead to search for a reachable anchor during
    * location interpolation before clamping to the last valid location. */
  val Lookahead = 6

  /** Records by timestamp; ties (duplicate timestamps) by floor, x, y. */
  private object ByTsThenFields extends Ordering[PosRecord] {
    def compare(a: PosRecord, b: PosRecord): Int = {
      var c = java.lang.Long.compare(a.ts, b.ts)
      if (c == 0) c = Integer.compare(a.floor, b.floor)
      if (c == 0) c = java.lang.Double.compare(a.x, b.x)
      if (c == 0) c = java.lang.Double.compare(a.y, b.y)
      c
    }
  }

  /** Clean one device's records (must be one device; need not be sorted).
    * Exposed for tests; the Spark entry point is [[clean]]. */
  def cleanDevice(dsm: Dsm, records: Seq[PosRecord],
                  maxSpeed: Double = DefaultMaxSpeed,
                  noiseSlack: Double = DefaultNoiseSlack): Vector[CleanRecord] = {
    // Sort once and drop duplicate timestamps, keeping the first in
    // `ByTsThenFields` order, so the result does not depend on input order.
    val sorted = records.sorted(ByTsThenFields)
      .foldLeft(Vector.empty[PosRecord]) {
        case (acc, r) if acc.nonEmpty && acc.last.ts == r.ts => acc
        case (acc, r)                                        => acc :+ r
      }
    if (sorted.isEmpty) return Vector.empty

    // Each record is located in the DSM once; `last` carries its own
    // located point, and a floor-substituted candidate is located only
    // when it is tried.
    val loc = sorted.map(r => dsm.locate(r.point))

    def ok(from: Located, fromTs: Long, to: Located, toTs: Long): Boolean = {
      val dt = (toTs - fromTs).toDouble
      dt > 0 && math.max(0.0, dsm.minWalkDist(from, to) - noiseSlack) / dt <= maxSpeed
    }

    // The first record is the first anchor. Off the map (a non-finite x or
    // y, or a floor the DSM does not model) it can anchor nothing, so it
    // takes the location of the first on-map record, as an interpolation;
    // a device with no on-map record keeps it as it is.
    val anchor = if (loc.head.region.isDefined) 0 else math.max(0, loc.indexWhere(_.region.isDefined))
    val a = sorted(anchor)
    val out = Vector.newBuilder[CleanRecord]
    var last = CleanRecord(a.deviceId, sorted.head.ts, a.x, a.y, a.floor,
                           if (anchor == 0) "none" else "interp")
    var lastLoc = loc(anchor)
    out += last

    var i = 1
    while (i < sorted.length) {
      val r = sorted(i)
      if (ok(lastLoc, last.ts, loc(i), r.ts)) {
        last = CleanRecord(r.deviceId, r.ts, r.x, r.y, r.floor, "none")
        lastLoc = loc(i)
        out += last
      } else {
        // Step 1: floor value correction — only for an *isolated* floor
        // blip: some upcoming record must still report the previous floor
        // (floor errors are independent per record; a genuine floor change
        // makes every later record disagree, and pinning the device to the
        // old floor would cascade the error through the rest of the trace).
        val lookNext = (i + 1 until math.min(i + 1 + Lookahead, sorted.length))
        val corroborated = lookNext.isEmpty || lookNext.exists(j => sorted(j).floor == last.floor)
        lazy val fixed = dsm.locate(IndoorPoint(r.x, r.y, last.floor))
        if (r.floor != last.floor && corroborated && ok(lastLoc, last.ts, fixed, r.ts)) {
          last = CleanRecord(r.deviceId, r.ts, r.x, r.y, last.floor, "floor")
          lastLoc = fixed
          out += last
        } else {
          // Trust-the-future re-anchor: when the upcoming records agree
          // with r but none agrees with the last valid record, the stale
          // anchor — not r — is the outlier (e.g. an earlier repair went
          // wrong). Accept r as the new anchor instead of fabricating a
          // position from a bad base; this bounds any repair cascade.
          val votes = lookNext.take(3)
          val agreeR = votes.count(j => ok(loc(i), r.ts, loc(j), sorted(j).ts))
          val agreeLast = votes.count(j => ok(lastLoc, last.ts, loc(j), sorted(j).ts))
          // Two independent corroborating records are required — one could
          // itself be a correlated outlier (or share r's floor error).
          if (votes.size >= 2 && agreeR >= 2 && agreeLast == 0) {
            last = CleanRecord(r.deviceId, r.ts, r.x, r.y, r.floor, "reanchor")
            lastLoc = loc(i)
            out += last
          } else {
            // Step 2: location interpolation toward the next reachable
            // anchor. The device's apparent floor is the majority floor of
            // the lookahead window; anchors on that floor are preferred,
            // and a floor-substituted anchor is only acceptable when the
            // window majority actually supports the previous floor —
            // otherwise interpolation would pin the device to it.
            val majorityFloor =
              if (lookNext.isEmpty) r.floor
              else lookNext.map(j => sorted(j).floor).groupBy(identity)
                .maxBy { case (f, v) => (v.size, f == last.floor) }._1
            def okAsIs(j: Int) = ok(lastLoc, last.ts, loc(j), sorted(j).ts)
            val anchor: Option[(Located, Long)] =
              lookNext.find(j => sorted(j).floor == majorityFloor && okAsIs(j))
                .orElse(lookNext.find(okAsIs))
                .map(j => (loc(j), sorted(j).ts))
                .orElse {
                  if (majorityFloor != last.floor) None
                  else lookNext.iterator.map { j =>
                    (dsm.locate(IndoorPoint(sorted(j).x, sorted(j).y, last.floor)), sorted(j).ts)
                  }.find { case (target, ts) => ok(lastLoc, last.ts, target, ts) }
                }
            val p = anchor match {
              case Some((target, targetTs)) =>
                val frac = (r.ts - last.ts).toDouble / (targetTs - last.ts).toDouble
                dsm.walk(lastLoc, target).fold(last.point)(_.at(frac))
              case None =>
                last.point // no reachable anchor ahead: hold the last valid location
            }
            last = CleanRecord(r.deviceId, r.ts, p.x, p.y, p.floor, "interp")
            lastLoc = dsm.locate(p)
            out += last
          }
        }
      }
      i += 1
    }
    out.result()
  }

  /** Clean all devices' records; device-parallel through its own
    * shuffle on the `deviceId` column. */
  def clean(spark: SparkSession, raw: Dataset[PosRecord], dsm: Broadcast[Dsm],
            maxSpeed: Double = DefaultMaxSpeed,
            noiseSlack: Double = DefaultNoiseSlack): Dataset[CleanRecord] = {
    import spark.implicits._
    PerDevice.flatMap(raw)(_.deviceId)(cleanDevice(dsm.value, _, maxSpeed, noiseSlack))
  }

  /** Consecutive-pair speeds per device using straight-line (Euclidean)
    * displacement — the DSM-free lower bound of the walking speed. Pure
    * window-function SQL, so the DuckDB oracle can verify it. Columns:
    * device_id, ts, prev_ts, euclid_speed (null for each device's first
    * record or zero/negative dt). Intra-floor only: a floor change makes
    * planar displacement meaningless, so speed is null there too.
    */
  def euclidSpeeds(raw: DataFrame): DataFrame = {
    val w = Window.partitionBy("deviceId").orderBy("ts")
    raw
      .withColumn("prev_ts", lag("ts", 1).over(w))
      .withColumn("prev_x", lag("x", 1).over(w))
      .withColumn("prev_y", lag("y", 1).over(w))
      .withColumn("prev_floor", lag("floor", 1).over(w))
      .withColumn("euclid_speed",
        when(col("prev_ts").isNotNull && col("ts") > col("prev_ts") &&
             col("floor") === col("prev_floor"),
          sqrt(pow(col("x") - col("prev_x"), 2) + pow(col("y") - col("prev_y"), 2)) /
            (col("ts") - col("prev_ts")))
          .otherwise(lit(null)))
      .select(col("deviceId").as("device_id"), col("ts"), col("prev_ts"), col("euclid_speed"))
  }

  /** Cleaning-quality statistics for T2: per-kind repair counts. */
  def repairStats(spark: SparkSession, cleaned: Dataset[CleanRecord]): DataFrame =
    cleaned.toDF().groupBy("repair").agg(count(lit(1)).as("n")).orderBy("repair")
}
