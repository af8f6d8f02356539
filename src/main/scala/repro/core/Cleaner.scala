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
  * [[cleanTrack]] is the one implementation: a flat loop over a
  * [[Track]]'s columns that writes a [[CleanTrack]], each record with the
  * region index of the location the speed check already computed, so the
  * Annotator never locates a record again. `Translator.translate` runs it
  * inside its single per-device pass, and again over the same grouping for
  * `Result.cleaned`; [[clean]] runs it alone, device-parallel, for T2 and
  * the benchmark; [[cleanDevice]] is its form over a `Seq` of records.
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

  /** The repairs, by the code a [[CleanTrack]] stores for them. */
  private[repro] val Repairs: Array[String] = Array("none", "floor", "reanchor", "interp")
  private final val AsIs: Byte = 0
  private final val Floor: Byte = 1
  private final val Reanchor: Byte = 2
  private final val Interp: Byte = 3

  /** Records by timestamp; ties (duplicate timestamps) by floor, x, y. A
    * total order: records it ranks equal are equal in every field. */
  private[repro] object ByTsThenFields extends Ordering[PosRecord] {
    def compare(a: PosRecord, b: PosRecord): Int = fields(a.ts, a.floor, a.x, a.y, b.ts, b.floor, b.x, b.y)

    def fields(ts1: Long, f1: Int, x1: Double, y1: Double, ts2: Long, f2: Int, x2: Double, y2: Double): Int = {
      var c = java.lang.Long.compare(ts1, ts2)
      if (c == 0) c = Integer.compare(f1, f2)
      if (c == 0) c = java.lang.Double.compare(x1, x2)
      if (c == 0) c = java.lang.Double.compare(y1, y2)
      c
    }

    /** Records `i` and `j` of `t` compared. */
    def compare(t: Track, i: Int, j: Int): Int =
      fields(t.ts(i), t.floor(i), t.x(i), t.y(i), t.ts(j), t.floor(j), t.x(j), t.y(j))
  }

  /** The indices of `t`'s records in [[ByTsThenFields]] order, equal
    * records in column order, keeping the first record of each timestamp.
    *
    * When the timestamps span less than 2^31 s, as any real feed's do, one
    * primitive sort of `(ts - min) << 32 | index` orders them by time and
    * index, and the runs that share a timestamp (duplicates, rare) are
    * ordered by the other fields with a stable insertion sort. Otherwise
    * the indices are sorted boxed, with the whole order. */
  private[core] def distinctByTs(t: Track): Array[Int] = {
    val n = t.length
    val ts = t.ts
    val order = new Array[Int](n)
    if (n == 0) return order
    var lo = ts(0); var hi = ts(0)
    var i = 1
    while (i < n) { lo = math.min(lo, ts(i)); hi = math.max(hi, ts(i)); i += 1 }
    val span = hi - lo // negative when it overflows
    if (span >= 0 && span < (1L << 31)) {
      val keys = new Array[Long](n)
      i = 0
      while (i < n) { keys(i) = ((ts(i) - lo) << 32) | i; i += 1 }
      java.util.Arrays.sort(keys)
      i = 0
      while (i < n) { order(i) = keys(i).toInt; i += 1 }
      i = 1
      while (i < n) {
        val o = order(i)
        var j = i
        while (j > 0 && ts(order(j - 1)) == ts(o) && ByTsThenFields.compare(t, order(j - 1), o) > 0) {
          order(j) = order(j - 1); j -= 1
        }
        order(j) = o
        i += 1
      }
    } else {
      val boxed = Array.tabulate[Integer](n)(Integer.valueOf)
      java.util.Arrays.sort(boxed, (a: Integer, b: Integer) => ByTsThenFields.compare(t, a, b))
      i = 0
      while (i < n) { order(i) = boxed(i); i += 1 }
    }
    var m = 0
    i = 0
    while (i < n) {
      if (m == 0 || ts(order(m - 1)) != ts(order(i))) { order(m) = order(i); m += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(order, m)
  }

  /** Clean one device's records (must be one device; need not be sorted):
    * [[cleanTrack]] of their columns. */
  def cleanDevice(dsm: Dsm, records: Seq[PosRecord],
                  maxSpeed: Double = DefaultMaxSpeed,
                  noiseSlack: Double = DefaultNoiseSlack): Vector[CleanRecord] =
    if (records.isEmpty) Vector.empty
    else cleanTrack(dsm, Track.of(records), maxSpeed, noiseSlack).records(records.head.deviceId)

  /** Clean one device's track, in one flat loop over columns: one cleaned
    * record per distinct timestamp, in time order, each with the region
    * index of its location, which the Cleaner locates anyway. */
  private[repro] def cleanTrack(dsm: Dsm, track: Track,
                                maxSpeed: Double = DefaultMaxSpeed,
                                noiseSlack: Double = DefaultNoiseSlack): CleanTrack = {
    // Sort once and drop duplicate timestamps, keeping the first in
    // `ByTsThenFields` order, so the result does not depend on input order.
    val idx = distinctByTs(track)
    val n = idx.length
    val ts = idx.map(i => track.ts(i))
    val xs = idx.map(i => track.x(i))
    val ys = idx.map(i => track.y(i))
    val fl = idx.map(i => track.floor(i))
    // Each record's output: the timestamps stay, the rest is written by `keep`.
    val out = new CleanTrack(ts, new Array[Double](n), new Array[Double](n), new Array[Int](n),
                             new Array[Byte](n), new Array[Int](n))
    if (n == 0) return out

    // Each record is located in the DSM once; a floor-substituted candidate
    // is located only when it is tried.
    val loc = Array.tabulate(n)(i => dsm.locate(IndoorPoint(xs(i), ys(i), fl(i))))

    def ok(from: Located, fromTs: Long, to: Located, toTs: Long): Boolean = {
      val dt = (toTs - fromTs).toDouble
      dt > 0 && dsm.walkWithin(from, to)(d => math.max(0.0, d - noiseSlack) / dt <= maxSpeed)
    }

    // The last kept record is record `kept - 1` of `out`; `lastLoc` is its location.
    var kept = 0
    var lastLoc: Located = null
    def keep(x: Double, y: Double, floor: Int, located: Located, repair: Byte): Unit = {
      out.x(kept) = x; out.y(kept) = y; out.floor(kept) = floor
      out.repair(kept) = repair; out.region(kept) = located.idx
      lastLoc = located
      kept += 1
    }
    def lastTs = ts(kept - 1)
    def lastFloor = out.floor(kept - 1)
    def lastPoint = IndoorPoint(out.x(kept - 1), out.y(kept - 1), lastFloor)

    def ahead(i: Int): Range = i + 1 until math.min(i + 1 + Lookahead, n)

    // `floor` only for an *isolated* floor blip. Floor errors are
    // independent per record; a genuine floor change makes every later
    // record disagree, and pinning the device to the old floor would
    // cascade the error through the rest of the trace.
    def onLastFloor(i: Int): Option[Located] = {
      val look = ahead(i)
      if (fl(i) == lastFloor || !(look.isEmpty || look.exists(j => fl(j) == lastFloor))) None
      else Some(dsm.locate(IndoorPoint(xs(i), ys(i), lastFloor))).filter(ok(lastLoc, lastTs, _, ts(i)))
    }

    // `reanchor` bounds a repair cascade (e.g. after an earlier repair went
    // wrong). Two of the next three records must agree with record i: one
    // could itself be a correlated outlier (or share its floor error).
    def reanchors(i: Int): Boolean = {
      val votes = ahead(i).take(3)
      votes.size >= 2 &&
        votes.count(j => ok(loc(i), ts(i), loc(j), ts(j))) >= 2 &&
        !votes.exists(j => ok(lastLoc, lastTs, loc(j), ts(j)))
    }

    // `interp`: the device's apparent floor is the majority floor of the
    // lookahead window; anchors on that floor are preferred, and a
    // floor-substituted anchor is only acceptable when the majority is the
    // last kept floor, otherwise interpolation would pin the device to it.
    // With no reachable anchor ahead, the last kept location is held.
    def interpolate(i: Int): IndoorPoint = {
      val look = ahead(i)
      val majorityFloor =
        if (look.isEmpty) fl(i)
        else look.map(j => fl(j)).groupBy(identity)
          .maxBy { case (f, v) => (v.size, f == lastFloor) }._1
      def okAsIs(j: Int) = ok(lastLoc, lastTs, loc(j), ts(j))
      val anchor: Option[(Located, Long)] =
        look.find(j => fl(j) == majorityFloor && okAsIs(j))
          .orElse(look.find(okAsIs))
          .map(j => (loc(j), ts(j)))
          .orElse {
            if (majorityFloor != lastFloor) None
            else look.iterator.map { j =>
              (dsm.locate(IndoorPoint(xs(j), ys(j), lastFloor)), ts(j))
            }.find { case (target, t) => ok(lastLoc, lastTs, target, t) }
          }
      anchor.fold(lastPoint) { case (target, targetTs) =>
        val frac = (ts(i) - lastTs).toDouble / (targetTs - lastTs).toDouble
        dsm.walk(lastLoc, target).fold(lastPoint)(_.at(frac))
      }
    }

    val first = if (loc(0).region.isDefined) 0 else math.max(0, loc.indexWhere(_.region.isDefined))
    keep(xs(first), ys(first), fl(first), loc(first), if (first == 0) AsIs else Interp)
    var i = 1
    while (i < n) {
      if (ok(lastLoc, lastTs, loc(i), ts(i))) keep(xs(i), ys(i), fl(i), loc(i), AsIs)
      else onLastFloor(i) match {
        case Some(fixed)          => keep(xs(i), ys(i), lastFloor, fixed, Floor)
        case None if reanchors(i) => keep(xs(i), ys(i), fl(i), loc(i), Reanchor)
        case None                 =>
          val p = interpolate(i)
          keep(p.x, p.y, p.floor, dsm.locate(p), Interp)
      }
      i += 1
    }
    out
  }

  /** Clean all devices' records, device-parallel, through a
    * [[PerDevice.tracks]] shuffle of its own: the Cleaner alone, as T2 and
    * the benchmark's per-layer trace and model training run it. It gives
    * the rows of `Translator.translate`'s `Result.cleaned`, which reuses
    * the translation's shuffle instead. */
  def clean(spark: SparkSession, raw: Dataset[PosRecord], dsm: Broadcast[Dsm],
            maxSpeed: Double = DefaultMaxSpeed): Dataset[CleanRecord] = {
    spark.createDataset(PerDevice.tracks(raw).flatMap { case (id, t) =>
      cleanTrack(dsm.value, t, maxSpeed).records(id)
    })(Translator.CleanRecordEncoder)
  }
}
