package repro.core

import repro.core.Schema._
import repro.indoor.Dsm
import repro.indoor.Geometry._

/** Density-based splitting (Annotation layer, step 1).
  *
  * Clusters a cleaned positioning sequence "with respect to its
  * spatio-temporal attributes" into '''snippets''', each to be matched to
  * one mobility semantics:
  *
  *  - a '''dense''' snippet is a maximal run of records confined to a small
  *    spatial diameter (`eps`) on one floor for at least `minDur` seconds —
  *    a density cluster in space-time (stay-candidate);
  *  - the records between dense clusters are movement; they are split into
  *    snippets at semantic-region transitions (each region traversal reads
  *    as one candidate pass-by) so the spatial annotation is unambiguous;
  *  - a time hole larger than `sessionGap` always starts a new snippet —
  *    such discontinuities are what the Complementing layer later repairs.
  *
  * Splitting is structural only: the event annotation of each snippet is
  * decided afterwards by the learned identification model.
  */
object Splitter {

  /** Spatial diameter bound of a dense cluster (metres). Sized to a shop
    * footprint plus positioning noise. */
  val DefaultEps = 14.0

  /** Minimum dwell of a dense cluster (seconds). */
  val DefaultMinDur = 40L

  /** A hole in the sampling larger than this starts a new snippet (s). */
  val DefaultSessionGap = 60L

  /** Split one device's cleaned, time-sorted records into snippets, in one
    * pass: a dense window grows greedily from each record and never across
    * a hole, and the movement run between dense snippets is flushed at each
    * dense snippet and each hole. */
  def split(dsm: Dsm, records: Seq[CleanRecord],
            eps: Double = DefaultEps, minDur: Long = DefaultMinDur,
            sessionGap: Long = DefaultSessionGap): Vector[Snippet] = {
    val rs = records.toIndexedSeq
    val out = Vector.newBuilder[Snippet]
    var nextId = 0

    def emit(dense: Boolean, from: Int, until: Int): Unit = {
      out += Snippet(rs(from).deviceId, nextId, dense, rs.slice(from, until))
      nextId += 1
    }

    /** Whether a sampling hole larger than `sessionGap` precedes record k. */
    def hole(k: Int): Boolean = rs(k).ts - rs(k - 1).ts > sessionGap

    /** The id of the region `Dsm.locate` gives r, the Cleaner's rule. */
    def regionOf(r: CleanRecord): String =
      dsm.regionAtSnapped(r.point).map(_.id).getOrElse("?")

    /** Emit the movement run rs(from until until), split at region transitions. */
    def flushMove(from: Int, until: Int): Unit = if (from < until) {
      var runStart = from
      var runRegion = regionOf(rs(from))
      for (k <- from + 1 until until) {
        val region = regionOf(rs(k))
        if (region != runRegion) { emit(dense = false, runStart, k); runStart = k; runRegion = region }
      }
      emit(dense = false, runStart, until)
    }

    var moveStart = 0
    var i = 0
    while (i < rs.length) {
      if (i > 0 && hole(i)) { flushMove(moveStart, i); moveStart = i }
      // Greedily extend a window from i while it stays eps-dense on one floor.
      var j = i
      var bbox = Rect(rs(i).x, rs(i).y, rs(i).x, rs(i).y)
      var ok = true
      while (ok && j + 1 < rs.length) {
        val c = rs(j + 1)
        val grown = bbox.union(Rect(c.x, c.y, c.x, c.y))
        if (!hole(j + 1) && c.floor == rs(i).floor &&
            math.hypot(grown.width, grown.height) <= eps) { bbox = grown; j += 1 }
        else ok = false
      }
      if (rs(j).ts - rs(i).ts >= minDur) {
        flushMove(moveStart, i)
        emit(dense = true, i, j + 1)
        i = j + 1
        moveStart = i
      } else i += 1
    }
    flushMove(moveStart, rs.length)
    out.result()
  }
}
