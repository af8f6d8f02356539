package repro.core

import repro.core.Schema._
import repro.indoor.Geometry._

/** Per-snippet feature extraction for event identification (paper §3:
  * "the feature extraction considers the information of positioning
  * location variance, traveling distance and speed, covering range,
  * number of turns, etc.").
  */
object Features {

  /** Displacements shorter than this are treated as positioning jitter and
    * ignored when counting turns (metres). */
  val TurnMinStep = 0.8

  /** Heading changes sharper than this count as a turn (radians). */
  val TurnMinAngle = math.Pi / 4

  /** Extract the feature vector of a snippet's records (time-sorted).
    *
    * One pass over the coordinates as primitive arrays (plus one for the
    * variance about the centroid). Every floating-point term is fixed:
    * sums accumulate from 0.0 in record order, the bounding box takes the
    * first minimum and maximum in `Ordering.Double.TotalOrdering` (so a
    * NaN coordinate fails `Rect`'s check), and turns are counted over the
    * jitter-filtered points as they are kept.
    */
  def of(deviceId: String, snippetId: Int, records: Seq[CleanRecord]): SnippetFeatures = {
    val n = records.size
    val xs = new Array[Double](n)
    val ys = new Array[Double](n)
    val ts = new Array[Long](n)
    var k = 0
    records.foreach { r => xs(k) = r.x; ys(k) = r.y; ts(k) = r.ts; k += 1 }
    of(deviceId, snippetId, ts, xs, ys, 0, n)
  }

  /** [[of]] the records `from until until` of the columns `ts`, `xs`, `ys`. */
  private[repro] def of(deviceId: String, snippetId: Int, ts: Array[Long], xs: Array[Double],
                        ys: Array[Double], from: Int, until: Int): SnippetFeatures = {
    require(until > from, "features of empty snippet")
    val n = until - from
    val duration = math.max(1L, ts(until - 1) - ts(from)).toDouble

    var pathLen, maxSpeed, sumX, sumY = 0.0
    var xMin, xMax = xs(from)
    var yMin, yMax = ys(from)
    // Turns: the last kept point and the heading into it, which exists
    // once two points are kept. Consecutive kept points are at least
    // TurnMinStep apart, so they differ and each pair has a heading.
    var mx, my, lastHeading = 0.0
    var kept = 0
    var nTurns = 0
    var i = from
    while (i < until) {
      val x = xs(i); val y = ys(i)
      if (i > from) {
        val step = math.hypot(xs(i - 1) - x, ys(i - 1) - y)
        pathLen += step
        if (ts(i) > ts(i - 1)) maxSpeed = math.max(maxSpeed, step / (ts(i) - ts(i - 1)))
      }
      sumX += x; sumY += y
      if (java.lang.Double.compare(xMin, x) > 0) xMin = x
      if (java.lang.Double.compare(xMax, x) < 0) xMax = x
      if (java.lang.Double.compare(yMin, y) > 0) yMin = y
      if (java.lang.Double.compare(yMax, y) < 0) yMax = y
      if (kept == 0 || math.hypot(mx - x, my - y) >= TurnMinStep) {
        if (kept > 0) {
          val h = math.atan2(y - my, x - mx)
          if (kept > 1 && turnAngle(lastHeading, h) >= TurnMinAngle) nTurns += 1
          lastHeading = h
        }
        mx = x; my = y; kept += 1
      }
      i += 1
    }
    val avgSpeed = pathLen / duration

    val cx = sumX / n
    val cy = sumY / n
    var sq = 0.0
    i = from
    while (i < until) {
      val dx = xs(i) - cx; val dy = ys(i) - cy
      sq += dx * dx + dy * dy
      i += 1
    }
    val locVariance = sq / n

    val bbox = Rect(xMin, yMin, xMax, yMax)
    val coveringRange = math.hypot(bbox.width, bbox.height)

    SnippetFeatures(deviceId, snippetId, duration, pathLen, avgSpeed, maxSpeed,
                    locVariance, coveringRange, nTurns.toDouble, n.toDouble)
  }

  def ofSnippet(s: Snippet): SnippetFeatures = of(s.deviceId, s.snippetId, s.records)
}
