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

  /** Split one device's cleaned, time-sorted records into snippets. */
  def split(dsm: Dsm, records: Seq[CleanRecord],
            eps: Double = DefaultEps, minDur: Long = DefaultMinDur,
            sessionGap: Long = DefaultSessionGap): Vector[Snippet] = {
    if (records.isEmpty) return Vector.empty
    val rs = records.toIndexedSeq
    val out = Vector.newBuilder[Snippet]
    var nextId = 0

    def regionOf(r: CleanRecord): String =
      dsm.regionAtSnapped(r.point).map(_.id).getOrElse("?")

    /** Flush a run of movement records, splitting at region transitions. */
    def flushMove(buf: Seq[CleanRecord]): Unit = {
      if (buf.isEmpty) return
      val region = buf.iterator.map(regionOf).toArray
      var runStart = 0
      var i = 1
      while (i <= buf.length) {
        if (i == buf.length || region(i) != region(runStart)) {
          out += Snippet(buf.head.deviceId, nextId, dense = false, buf.slice(runStart, i))
          nextId += 1
          runStart = i
        }
        i += 1
      }
    }

    // Sessions at sampling holes.
    val sessions = Vector.newBuilder[IndexedSeq[CleanRecord]]
    var sStart = 0
    for (i <- 1 until rs.length) {
      if (rs(i).ts - rs(i - 1).ts > sessionGap) { sessions += rs.slice(sStart, i); sStart = i }
    }
    sessions += rs.slice(sStart, rs.length)

    for (sess <- sessions.result(); if sess.nonEmpty) {
      val move = Vector.newBuilder[CleanRecord]
      var i = 0
      while (i < sess.length) {
        // Greedily extend a window from i while it stays eps-dense on one floor.
        var j = i
        var bbox = Rect(sess(i).x, sess(i).y, sess(i).x, sess(i).y)
        var ok = true
        while (ok && j + 1 < sess.length) {
          val c = sess(j + 1)
          val grown = bbox.union(Rect(c.x, c.y, c.x, c.y))
          if (c.floor == sess(i).floor &&
              math.hypot(grown.width, grown.height) <= eps) { bbox = grown; j += 1 }
          else ok = false
        }
        if (sess(j).ts - sess(i).ts >= minDur) {
          flushMove(move.result()); move.clear()
          out += Snippet(sess(i).deviceId, nextId, dense = true, sess.slice(i, j + 1))
          nextId += 1
          i = j + 1
        } else {
          move += sess(i)
          i += 1
        }
      }
      flushMove(move.result()); move.clear()
    }
    out.result()
  }
}
