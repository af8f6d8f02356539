package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Schema._
import repro.indoor.Dsm
import repro.indoor.Dsm.Located
import repro.indoor.Geometry.IndoorPoint

/** The Cleaning layer of the three-layer translation framework (paper §3).
  *
  * Identifies invalid raw positioning records by checking the speeds
  * between consecutive records against the '''minimum indoor walking
  * distance''' from the DSM (people cannot move through walls, and cannot
  * move faster than `maxSpeed` indoors — Yang et al. [13] as cited). Each
  * record, in time order, gets the first `repair` whose rule applies:
  *
  *  1. `none`: it passes the speed check from the last kept record;
  *  1. `floor` ('''floor value correction'''): it passes on the last kept
  *     floor, which a record ahead still reports (a classic Wi-Fi
  *     positioning failure across slabs);
  *  1. `reanchor`: the next records agree with it and none with the last
  *     kept record, so that record was the outlier;
  *  1. `interp` ('''location interpolation'''): it takes the
  *     time-proportional point along the shortest indoor walking path from
  *     the last kept record to the next record ahead reachable from it.
  *
  * An off-map first record (a non-finite x or y, or an unmodelled floor)
  * takes the location of the first on-map record, as `interp`; a device
  * with no on-map record keeps it, as `none`.
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

  /** Records by timestamp; ties (duplicate timestamps) by floor, x, y. A
    * total order: records it ranks equal are equal in every field. */
  private[repro] object ByTsThenFields extends Ordering[PosRecord] {
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
    // Sort once and drop duplicate timestamps in place, keeping the first in
    // `ByTsThenFields` order, so the result does not depend on input order.
    val rs = records.toArray.sortInPlace()(ByTsThenFields)
    var n = 0 // rs(0 until n) are the records to clean
    for (r <- rs) if (n == 0 || rs(n - 1).ts != r.ts) { rs(n) = r; n += 1 }
    if (n == 0) return Vector.empty

    // Each record is located in the DSM once; a floor-substituted candidate
    // is located only when it is tried.
    val loc = Array.tabulate(n)(i => dsm.locate(rs(i).point))

    def ok(from: Located, fromTs: Long, to: Located, toTs: Long): Boolean = {
      val dt = (toTs - fromTs).toDouble
      dt > 0 && math.max(0.0, dsm.minWalkDist(from, to) - noiseSlack) / dt <= maxSpeed
    }

    val out = Vector.newBuilder[CleanRecord]
    var last: CleanRecord = null // the last kept record and its location,
    var lastLoc: Located = null  // set by `keep`
    def keep(ts: Long, x: Double, y: Double, floor: Int, located: Located, repair: String): Unit = {
      last = CleanRecord(rs(0).deviceId, ts, x, y, floor, repair)
      lastLoc = located
      out += last
    }

    def ahead(i: Int): Range = i + 1 until math.min(i + 1 + Lookahead, n)

    // `floor` only for an *isolated* floor blip. Floor errors are
    // independent per record; a genuine floor change makes every later
    // record disagree, and pinning the device to the old floor would
    // cascade the error through the rest of the trace.
    def onLastFloor(i: Int): Option[Located] = {
      val r = rs(i)
      val look = ahead(i)
      if (r.floor == last.floor || !(look.isEmpty || look.exists(j => rs(j).floor == last.floor))) None
      else Some(dsm.locate(IndoorPoint(r.x, r.y, last.floor))).filter(ok(lastLoc, last.ts, _, r.ts))
    }

    // `reanchor` bounds a repair cascade (e.g. after an earlier repair went
    // wrong). Two of the next three records must agree with record i: one
    // could itself be a correlated outlier (or share its floor error).
    def reanchors(i: Int): Boolean = {
      val votes = ahead(i).take(3)
      votes.size >= 2 &&
        votes.count(j => ok(loc(i), rs(i).ts, loc(j), rs(j).ts)) >= 2 &&
        !votes.exists(j => ok(lastLoc, last.ts, loc(j), rs(j).ts))
    }

    // `interp`: the device's apparent floor is the majority floor of the
    // lookahead window; anchors on that floor are preferred, and a
    // floor-substituted anchor is only acceptable when the majority is the
    // last kept floor, otherwise interpolation would pin the device to it.
    // With no reachable anchor ahead, the last kept location is held.
    def interpolate(i: Int): IndoorPoint = {
      val look = ahead(i)
      val majorityFloor =
        if (look.isEmpty) rs(i).floor
        else look.map(j => rs(j).floor).groupBy(identity)
          .maxBy { case (f, v) => (v.size, f == last.floor) }._1
      def okAsIs(j: Int) = ok(lastLoc, last.ts, loc(j), rs(j).ts)
      val anchor: Option[(Located, Long)] =
        look.find(j => rs(j).floor == majorityFloor && okAsIs(j))
          .orElse(look.find(okAsIs))
          .map(j => (loc(j), rs(j).ts))
          .orElse {
            if (majorityFloor != last.floor) None
            else look.iterator.map { j =>
              (dsm.locate(IndoorPoint(rs(j).x, rs(j).y, last.floor)), rs(j).ts)
            }.find { case (target, ts) => ok(lastLoc, last.ts, target, ts) }
          }
      anchor.fold(last.point) { case (target, targetTs) =>
        val frac = (rs(i).ts - last.ts).toDouble / (targetTs - last.ts).toDouble
        dsm.walk(lastLoc, target).fold(last.point)(_.at(frac))
      }
    }

    val first = if (loc(0).region.isDefined) 0 else math.max(0, loc.indexWhere(_.region.isDefined))
    keep(rs(0).ts, rs(first).x, rs(first).y, rs(first).floor, loc(first), if (first == 0) "none" else "interp")
    for (i <- 1 until n) {
      val r = rs(i)
      if (ok(lastLoc, last.ts, loc(i), r.ts)) keep(r.ts, r.x, r.y, r.floor, loc(i), "none")
      else onLastFloor(i) match {
        case Some(fixed)          => keep(r.ts, r.x, r.y, last.floor, fixed, "floor")
        case None if reanchors(i) => keep(r.ts, r.x, r.y, r.floor, loc(i), "reanchor")
        case None                 =>
          val p = interpolate(i)
          keep(r.ts, p.x, p.y, p.floor, dsm.locate(p), "interp")
      }
    }
    out.result()
  }

  /** Clean all devices' records; device-parallel through its own
    * [[PerDevice.tracks]] shuffle, so each device's records are grouped as
    * in `Translator.translate`. */
  def clean(spark: SparkSession, raw: Dataset[PosRecord], dsm: Broadcast[Dsm],
            maxSpeed: Double = DefaultMaxSpeed): Dataset[CleanRecord] = {
    import spark.implicits._
    PerDevice.tracks(raw).flatMap { case (_, rs) => cleanDevice(dsm.value, rs, maxSpeed) }.toDS()
  }
}
