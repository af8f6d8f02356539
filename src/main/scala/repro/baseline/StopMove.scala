package repro.baseline

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{Cleaner, PerDevice}
import repro.core.Schema._
import repro.indoor.Dsm
import repro.indoor.Geometry._

/** Baseline annotator modeled on the semantic-trajectory platform the
  * paper compares against (Yan et al. [12]): '''stop/move''' segmentation
  * designed for outdoor GPS trajectories.
  *
  * Deliberately lacks everything TRIPS adds for indoor data:
  *  - no cleaning — raw records are consumed as-is (no indoor topology to
  *    detect speed-constraint violations, no floor correction);
  *  - stop detection by Euclidean velocity thresholding only (the
  *    classical stop/move definition), no learned event model;
  *  - spatial annotation by nearest region '''centroid''' on the reported
  *    floor — a geographic-artifact lookup, blind to walls and doors;
  *  - only two patterns, stop → `stay` and move → `pass-by`, and no
  *    complementing of gaps.
  *
  * Used by T3/T5 to quantify the gap the paper argues qualitatively.
  */
object StopMove {

  /** Velocity below which a record reads as part of a stop (m/s). */
  val StopSpeed = 0.3
  /** Minimum stop duration (s). */
  val MinStopDur = 60L

  /** Segment one device's raw records (in any order) into stop/move
    * semantics with nearest-centroid region annotation. The records are
    * sorted in the Cleaner's total order, so records that share a
    * timestamp give the same speeds in any input order. */
  def annotateDevice(dsm: Dsm, records: Seq[PosRecord]): Vector[Semantic] = {
    if (records.isEmpty) return Vector.empty
    val rs = records.sorted(Cleaner.ByTsThenFields).toVector

    def nearestByCentroid(p: PosRecord): (String, String) = {
      val candidates = dsm.regionsOnFloor(p.floor)
      val all = if (candidates.nonEmpty) candidates else dsm.regions
      val r = all.minBy(_.rect.center.dist(Pt(p.x, p.y)))
      (r.id, r.tag)
    }

    // Euclidean velocity per record (vs previous record, same floor or not).
    val speeds = rs.indices.map { i =>
      if (i == 0) 0.0
      else {
        val dt = math.max(1L, rs(i).ts - rs(i - 1).ts).toDouble
        Pt(rs(i).x, rs(i).y).dist(Pt(rs(i - 1).x, rs(i - 1).y)) / dt
      }
    }

    // Runs of slow records ≥ MinStopDur are stops; the rest are moves.
    val out = Vector.newBuilder[Semantic]
    var seq = 0
    var i = 0
    while (i < rs.length) {
      var j = i
      while (j + 1 < rs.length && (speeds(j + 1) <= StopSpeed)) j += 1
      val isStop = j > i && rs(j).ts - rs(i).ts >= MinStopDur
      if (isStop) {
        val mid = rs((i + j) / 2)
        val (rid, tag) = nearestByCentroid(mid)
        out += Semantic(mid.deviceId, seq, Stay, tag, rid, rs(i).ts, rs(j).ts, "baseline")
        seq += 1
        i = j + 1
      } else {
        // Move run: extend until the next stop begins.
        var k = i
        var stopAt = -1
        while (k + 1 < rs.length && stopAt < 0) {
          if (speeds(k + 1) <= StopSpeed) stopAt = k + 1 else k += 1
        }
        val end = if (stopAt < 0) rs.length - 1 else k
        val mid = rs((i + end) / 2)
        val (rid, tag) = nearestByCentroid(mid)
        out += Semantic(mid.deviceId, seq, PassBy, tag, rid, rs(i).ts, rs(end).ts, "baseline")
        seq += 1
        i = end + 1
      }
    }
    out.result()
  }

  /** Annotate all devices; device-parallel. */
  def annotate(spark: SparkSession, raw: Dataset[PosRecord],
               dsm: Broadcast[Dsm]): Dataset[Semantic] = {
    import spark.implicits._
    PerDevice.tracks(raw).flatMap { case (_, rs) => annotateDevice(dsm.value, rs) }.toDS()
  }
}
