package repro.core

import repro.core.Schema._
import repro.indoor.Dsm
import repro.indoor.Geometry.hypotWithin
import scala.collection.mutable

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
  * decided afterwards by the learned identification model. [[cut]] is the
  * one implementation: it reads a [[CleanTrack]]'s columns and carried
  * region indices and returns index ranges; [[split]] is its form over a
  * `Seq` of records, returning [[Snippet]]s.
  */
object Splitter {

  /** Spatial diameter bound of a dense cluster (metres). Sized to a shop
    * footprint plus positioning noise. */
  val DefaultEps = 14.0

  /** Minimum dwell of a dense cluster (seconds). */
  val DefaultMinDur = 40L

  /** A hole in the sampling larger than this starts a new snippet (s). */
  val DefaultSessionGap = 60L

  /** A track's snippets as index ranges: snippets cover the records in
    * order, snippet `k` is records `bounds(k) until bounds(k + 1)`, and it
    * is dense when `dense(k)`. */
  final class Cuts(val bounds: Array[Int], val dense: Array[Boolean]) {
    def size: Int = dense.length
  }

  /** Split one device's cleaned, time-sorted records into snippets: the
    * [[cut]] of their columns, each snippet with its slice of `records`. */
  def split(dsm: Dsm, records: Seq[CleanRecord],
            eps: Double = DefaultEps, minDur: Long = DefaultMinDur,
            sessionGap: Long = DefaultSessionGap): Vector[Snippet] = {
    val rs = records.toIndexedSeq
    val c = cut(CleanTrack.of(dsm, rs), eps, minDur, sessionGap)
    Vector.tabulate(c.size) { k =>
      Snippet(rs(c.bounds(k)).deviceId, k, c.dense(k), rs.slice(c.bounds(k), c.bounds(k + 1)))
    }
  }

  /** Split one device's cleaned track into snippets, in one pass: a dense
    * window grows greedily from each record and never across a hole, and
    * the movement run between dense snippets is flushed at each dense
    * snippet and each hole, and cut where the records' carried region
    * changes. A NaN coordinate bounds no window: it is rejected with an
    * `IllegalArgumentException`, as `Geometry.Rect` rejects it. */
  private[repro] def cut(t: CleanTrack, eps: Double = DefaultEps, minDur: Long = DefaultMinDur,
                         sessionGap: Long = DefaultSessionGap): Cuts = {
    val n = t.length
    val (ts, xs, ys, fl, region) = (t.ts, t.x, t.y, t.floor, t.region)
    var k = 0
    while (k < n) {
      require(!xs(k).isNaN && !ys(k).isNaN, s"NaN coordinate at ${ts(k)}")
      k += 1
    }
    val bounds = new mutable.ArrayBuilder.ofInt
    val dense = new mutable.ArrayBuilder.ofBoolean
    bounds += 0

    def emit(isDense: Boolean, until: Int): Unit = { bounds += until; dense += isDense }

    /** Whether a sampling hole larger than `sessionGap` precedes record k. */
    def hole(k: Int): Boolean = ts(k) - ts(k - 1) > sessionGap

    /** Emit the movement run `from until until`, split at region transitions. */
    def flushMove(from: Int, until: Int): Unit = if (from < until) {
      var runRegion = region(from)
      for (k <- from + 1 until until) {
        if (region(k) != runRegion) { emit(isDense = false, k); runRegion = region(k) }
      }
      emit(isDense = false, until)
    }

    var moveStart = 0
    var i = 0
    while (i < n) {
      if (i > 0 && hole(i)) { flushMove(moveStart, i); moveStart = i }
      // Greedily extend a window from i while it stays eps-dense on one
      // floor; its bounding box is (xMin, yMin)–(xMax, yMax).
      var j = i
      var xMin = xs(i); var xMax = xs(i)
      var yMin = ys(i); var yMax = ys(i)
      var ok = true
      while (ok && j + 1 < n) {
        val c = j + 1
        val gxMin = math.min(xMin, xs(c)); val gxMax = math.max(xMax, xs(c))
        val gyMin = math.min(yMin, ys(c)); val gyMax = math.max(yMax, ys(c))
        if (!hole(c) && fl(c) == fl(i) && hypotWithin(gxMax - gxMin, gyMax - gyMin)(_ <= eps)) {
          xMin = gxMin; xMax = gxMax; yMin = gyMin; yMax = gyMax; j += 1
        } else ok = false
      }
      if (ts(j) - ts(i) >= minDur) {
        flushMove(moveStart, i)
        emit(isDense = true, j + 1)
        i = j + 1
        moveStart = i
      } else i += 1
    }
    flushMove(moveStart, n)
    new Cuts(bounds.result(), dense.result())
  }
}
