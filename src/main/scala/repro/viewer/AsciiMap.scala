package repro.viewer

import repro.indoor.Dsm
import repro.indoor.Geometry._

/** Text stand-in for the Indoor Map Visualizer: renders one floor of the
  * DSM as an ASCII grid — region outlines, doors, and overlaid timeline
  * entries — with a tooltip legend of the visible semantic tags. Supports
  * the floor switch by rendering any requested floor. (GUI pixels are out
  * of scope; this preserves the map view's information content for the
  * demo jobs and tests.)
  */
object AsciiMap {

  /** Characters per metre horizontally / rows per metre vertically. */
  val ScaleX = 0.8
  val ScaleY = 0.45

  /** Render `floor` with `marks` = (x, y, char) overlays (entries). */
  def render(dsm: Dsm, floor: Int, marks: Seq[(Double, Double, Char)] = Seq.empty): String = {
    val regions = dsm.regionsOnFloor(floor)
    if (regions.isEmpty) return s"(floor $floor: empty)\n"
    val bounds = regions.map(_.rect).reduce(_.union(_))
    val w = math.max(10, math.ceil(bounds.width * ScaleX).toInt + 1)
    val h = math.max(6, math.ceil(bounds.height * ScaleY).toInt + 1)
    val grid = Array.fill(h, w)(' ')

    def gx(x: Double): Int = math.min(w - 1, math.max(0, ((x - bounds.xMin) * ScaleX).round.toInt))
    def gy(y: Double): Int = // screen y grows downward
      math.min(h - 1, math.max(0, ((bounds.yMax - y) * ScaleY).round.toInt))

    regions.foreach { r =>
      val (x0, x1) = (gx(r.rect.xMin), gx(r.rect.xMax))
      val (y0, y1) = (gy(r.rect.yMax), gy(r.rect.yMin))
      for (x <- x0 to x1) { grid(y0)(x) = '-'; grid(y1)(x) = '-' }
      for (y <- y0 to y1) { grid(y)(x0) = '|'; grid(y)(x1) = '|' }
      grid(y0)(x0) = '+'; grid(y0)(x1) = '+'; grid(y1)(x0) = '+'; grid(y1)(x1) = '+'
      // Region label: first letters of the tag, centred-ish.
      val label = r.tag.take(math.max(1, x1 - x0 - 1))
      val ly = (y0 + y1) / 2
      val lx = x0 + 1 + math.max(0, (x1 - x0 - 1 - label.length) / 2)
      label.zipWithIndex.foreach { case (c, i) =>
        if (lx + i < x1) grid(ly)(lx + i) = c
      }
    }
    dsm.doors.filter(d =>
        dsm.regionById(d.regionA).floor == floor || dsm.regionById(d.regionB).floor == floor)
      .foreach { d => grid(gy(d.y))(gx(d.x)) = 'D' }
    marks.foreach { case (x, y, c) =>
      if (x >= bounds.xMin && x <= bounds.xMax && y >= bounds.yMin && y <= bounds.yMax)
        grid(gy(y))(gx(x)) = c
    }
    val sb = new StringBuilder
    sb ++= s"Floor ${floor + 1}F (${bounds.width}m x ${bounds.height}m)\n"
    grid.foreach { row => sb ++= row.mkString; sb += '\n' }
    sb.result()
  }
}
